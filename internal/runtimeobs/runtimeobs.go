// Package runtimeobs is the host-side, wall-clock twin of internal/obs: a
// span collector for where the *host* spends time running a simulation —
// engine init / simulate / finalize phases, sweep-pool occupancy — as
// opposed to obs, which records what the *simulated* machine did in
// virtual cycles.
//
// Two contracts make it safe to attach to deterministic runs:
//
//  1. Nil-probe pattern (same as obs): every method no-ops on a nil
//     receiver, so instrumented code holds a possibly-nil *Proc or *Lane
//     and the disabled path costs one pointer check and zero allocations.
//
//  2. Strictly one-way: simulation code may emit stamps and spans *into*
//     the collector but never reads a host-time value back out. Stamp is a
//     deliberately opaque named type, and the runtimeobs-isolation lint
//     rule rejects both call paths from runtimeobs into simulator state
//     and simulator code that extracts non-opaque values from this
//     package. Together these guarantee results stay byte-identical with
//     runtime observability on or off.
//
// Concurrency model: a Collector and its Procs are safe for concurrent
// use; a Lane is owned by exactly one goroutine at a time (one engine run,
// one sweep-pool worker).
package runtimeobs

import (
	"strconv"
	"sync"
	"time"
)

// Stamp is a host-time reading: nanoseconds since the owning Collector was
// created. It is an opaque handle on purpose — simulation code obtains
// Stamps and hands them back to SpanAt, but must never convert one to an
// arithmetic type (the runtimeobs-isolation rule flags that as host-time
// laundering).
type Stamp int64

// Span names emitted by the instrumented layers.
const (
	// SpanRun covers one whole engine run or sweep.
	SpanRun = "run"
	// SpanInit covers engine setup plus the workload's init phase.
	SpanInit = "init"
	// SpanSimulate is the engine's main scheduling loop.
	SpanSimulate = "simulate"
	// SpanFinalize is metrics assembly after the main loop.
	SpanFinalize = "finalize"
	// SpanExperiment is one experiment occupying one sweep-pool worker.
	SpanExperiment = "exp"
)

// Span is one closed host-time interval on a lane.
type Span struct {
	Name  string
	Start Stamp
	End   Stamp
	Arg   int64 // name-dependent payload (config index), -1 unused
}

// Collector is the root of one process's runtime observations. The zero
// value is not useful; use New. A nil *Collector is the disabled state.
type Collector struct {
	start time.Time
	mu    sync.Mutex
	procs []*Proc
}

// New returns a collector whose Stamps count from now.
func New() *Collector { return &Collector{start: time.Now()} }

// Now returns the current host time as an opaque Stamp (0 when disabled).
func (c *Collector) Now() Stamp {
	if c == nil {
		return 0
	}
	return Stamp(time.Since(c.start))
}

// Proc opens a new process-scoped span group (one engine run, one sweep
// pool); it renders as its own pid lane group in the Chrome trace. Safe to
// call concurrently. Returns nil when the collector is disabled.
func (c *Collector) Proc(name string) *Proc {
	if c == nil {
		return nil
	}
	p := &Proc{c: c, name: name}
	c.mu.Lock()
	c.procs = append(c.procs, p)
	c.mu.Unlock()
	return p
}

// snapshot returns the current proc list. Callers must not mutate it.
func (c *Collector) snapshot() []*Proc {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]*Proc, len(c.procs))
	copy(out, c.procs)
	c.mu.Unlock()
	return out
}

// MetaKV is one ordered metadata pair on a Proc.
type MetaKV struct {
	Key string
	Val string
}

// Proc is one process-scoped group of lanes (an engine run, a sweep pool).
// A nil *Proc is the disabled state.
type Proc struct {
	c     *Collector
	name  string
	mu    sync.Mutex
	lanes []*Lane
	meta  []MetaKV
}

// Now returns the owning collector's current Stamp (0 when disabled).
func (p *Proc) Now() Stamp {
	if p == nil {
		return 0
	}
	return p.c.Now()
}

// Lane opens a new single-goroutine span buffer under p (an engine run,
// one sweep worker). Returns nil when disabled.
func (p *Proc) Lane(name string) *Lane {
	if p == nil {
		return nil
	}
	l := &Lane{name: name}
	p.mu.Lock()
	p.lanes = append(p.lanes, l)
	p.mu.Unlock()
	return l
}

// SetMeta records one string label on the proc (kind), replacing any
// previous value for key.
func (p *Proc) SetMeta(key, val string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.meta {
		if p.meta[i].Key == key {
			p.meta[i].Val = val
			return
		}
	}
	p.meta = append(p.meta, MetaKV{Key: key, Val: val})
}

// SetMetaInt records one integer label on the proc (worker count).
func (p *Proc) SetMetaInt(key string, v int64) {
	p.SetMeta(key, strconv.FormatInt(v, 10))
}

// metaVal returns the value recorded for key, or "".
func (p *Proc) metaVal(key string) string {
	for _, kv := range p.meta {
		if kv.Key == key {
			return kv.Val
		}
	}
	return ""
}

// metaInt returns the integer recorded for key, or 0.
func (p *Proc) metaInt(key string) int64 {
	v, err := strconv.ParseInt(p.metaVal(key), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// Lane is one thread-like row of spans, appended to by a single goroutine.
// A nil *Lane is the disabled state.
type Lane struct {
	name  string
	spans []Span
}

// SpanAt records one closed interval with explicit stamps. Pass arg as -1
// when not meaningful. The explicit-stamp form (rather than an internal
// clock read) keeps the emit API pure and lets tests drive the summary
// math deterministically.
func (l *Lane) SpanAt(name string, start, end Stamp, arg int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, Span{Name: name, Start: start, End: end, Arg: arg})
}
