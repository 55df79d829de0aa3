package runtimeobs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"spcd/internal/obs"
)

// Chrome trace export for host-time lanes. The output uses the same trace
// envelope as the virtual-time exporter (obs.TraceSink) so host and
// virtual lanes can interleave in one merged file, but a separate pid
// namespace: virtual-time processes occupy pids [0, N) and host-time
// processes follow, so Perfetto shows "host: ..." groups alongside the
// simulated-machine groups without tid collisions.

// sortedProcs returns the collector's procs ordered by name (creation
// order breaks ties) so export order is stable even when procs were opened
// concurrently by sweep workers.
func sortedProcs(c *Collector) []*Proc {
	procs := c.snapshot()
	sort.SliceStable(procs, func(i, j int) bool { return procs[i].name < procs[j].name })
	return procs
}

// usec renders a Stamp (or Stamp difference) as Chrome's microsecond
// timestamp with nanosecond precision.
func usec(d Stamp) string {
	return strconv.FormatFloat(float64(d)/1e3, 'f', 3, 64)
}

// WriteChromeTrace writes the collector's spans as a standalone Chrome
// trace. Spans render as "X" complete events.
func WriteChromeTrace(w io.Writer, c *Collector) error {
	sink := obs.NewTraceSink()
	AppendTrace(sink, c, 0)
	return sink.Flush(w)
}

// AppendTrace emits the collector's procs into sink with pids starting at
// basePid and returns the next free pid. Callers merging host lanes into a
// virtual-time trace pass the pid where the virtual namespace ended.
func AppendTrace(sink *obs.TraceSink, c *Collector, basePid int) int {
	if c == nil {
		return basePid
	}
	pid := basePid
	for _, p := range sortedProcs(c) {
		appendProc(sink, p, pid)
		pid++
	}
	return pid
}

func appendProc(sink *obs.TraceSink, p *Proc, pid int) {
	sink.Emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`,
		pid, obs.JSONString("host: "+p.name)))
	if len(p.meta) > 0 {
		labels := make([]string, 0, len(p.meta))
		for _, kv := range p.meta {
			labels = append(labels, kv.Key+"="+kv.Val)
		}
		sink.Emit(fmt.Sprintf(`{"name":"process_labels","ph":"M","pid":%d,"args":{"labels":%s}}`,
			pid, obs.JSONString(strings.Join(labels, ","))))
	}
	for tid, l := range p.lanes {
		sink.Emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			pid, tid, obs.JSONString(l.name)))
		for _, s := range l.spans {
			args := "{}"
			if s.Arg >= 0 {
				args = fmt.Sprintf(`{"arg":%d}`, s.Arg)
			}
			sink.Emit(fmt.Sprintf(`{"name":%s,"cat":"host","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":%s}`,
				obs.JSONString(s.Name), usec(s.Start), usec(s.End-s.Start), pid, tid, args))
		}
	}
}
