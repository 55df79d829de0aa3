package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanRun      spanKind = iota // engine.Run
	spanSetup                    // engine.Run entry to the engine's first Run.Next
	spanInit                     // engine.Policy.Init
	spanNextInit                 // workloads.Initializer.NextInit
	spanNext                     // workloads.Run.Next
	spanTick                     // engine.Policy.Tick
	spanScenario                 // scenario.Run
	spanSpec                     // scenario spec construction
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"engine.run", "engine.setup", "policy.init", "workloads.next_init",
	"workloads.next", "policy.tick", "scenario.run", "scenario.spec",
}

// span is one timed call. Times are nanoseconds since the recorder's base.
type span struct {
	start, end int64
	parent     int32 // index of the enclosing span, -1 for a root
	run        int32 // simulation the span belongs to
	items      int32 // accesses produced, for Next and NextInit spans
	kind       spanKind
}

// recorder keeps the spans of one traced pass in memory. All calls come
// from the single goroutine that drives the simulations, so spans nest as a
// stack: begin pushes, end pops.
type recorder struct {
	base  time.Time
	spans []span
	open  []int32
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span under the innermost open span and returns its index.
func (r *recorder) begin(kind spanKind, run int32) int32 {
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{start: r.now(), parent: parent, run: run, kind: kind})
	r.open = append(r.open, idx)
	return idx
}

// end closes span idx and every span still open inside it, so a call that
// returned early (an engine error before the first Next) cannot leave the
// stack unbalanced.
func (r *recorder) end(idx int32) {
	t := r.now()
	for len(r.open) > 0 {
		top := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		r.spans[top].end = t
		if top == idx {
			return
		}
	}
}

// layerTotals sums, per span kind, self time (span time minus the time its
// child spans cover), span count and items.
type layerTotals struct {
	self  [numSpanKinds]time.Duration
	total [numSpanKinds]time.Duration
	calls [numSpanKinds]uint64
	items [numSpanKinds]uint64
}

func (r *recorder) totals() layerTotals {
	var lt layerTotals
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		d := s.end - s.start
		lt.total[s.kind] += time.Duration(d)
		lt.self[s.kind] += time.Duration(d - child[i])
		lt.calls[s.kind]++
		lt.items[s.kind] += uint64(s.items)
	}
	return lt
}

// write stores the spans as gzip-compressed CSV, one span per row.
func (r *recorder) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "span,parent,run,name,start_ns,end_ns,items")
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d,%d\n", i, s.parent, s.run, spanNames[s.kind], s.start, s.end, s.items)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
