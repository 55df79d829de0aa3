// Command benchdiff compares two entries of the BENCH_history.jsonl log
// (written by `perfbench -history`) and reports per-configuration throughput
// deltas. It exits nonzero when any kernel × policy configuration regressed
// by more than the threshold, so CI can surface engine slowdowns the moment
// they land — informationally at first (wall-clock measurements on shared
// runners are noisy), with the history giving the trend that separates noise
// from a real regression.
//
// Usage:
//
//	benchdiff                                  # last two entries of BENCH_history.jsonl
//	benchdiff -history perf/BENCH_history.jsonl
//	benchdiff -a -3 -b -1                      # compare 3 runs ago vs latest
//	benchdiff -a 0 -b 5                        # absolute indices, oldest = 0
//	benchdiff -threshold 0.2                   # tolerate up to 20% slowdown
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"spcd/internal/benchfmt"
)

func main() {
	var (
		history   = flag.String("history", "BENCH_history.jsonl", "JSONL benchmark history to read")
		aIdx      = flag.Int("a", -2, "baseline entry index (negative = from the end; -2 = second newest)")
		bIdx      = flag.Int("b", -1, "candidate entry index (negative = from the end; -1 = newest)")
		threshold = flag.Float64("threshold", 0.10, "maximum tolerated per-configuration throughput drop (fraction; 0.10 = 10%)")
	)
	flag.Parse()

	entries, err := benchfmt.ReadHistory(*history)
	if err != nil {
		fatal(err)
	}
	if len(entries) < 2 {
		fmt.Printf("benchdiff: %s has %d entr%s; need 2 to compare — nothing to do\n",
			*history, len(entries), plural(len(entries)))
		return
	}
	a, err := pick(entries, *aIdx)
	if err != nil {
		fatal(err)
	}
	b, err := pick(entries, *bIdx)
	if err != nil {
		fatal(err)
	}

	report, regressed := compare(a, b, *threshold)
	fmt.Print(report)
	if regressed {
		fmt.Printf("\nbenchdiff: REGRESSION: at least one configuration slowed down more than %.0f%%\n", *threshold*100)
		os.Exit(1)
	}
}

// pick resolves an entry index; negative values count from the end
// (-1 = newest).
func pick(entries []benchfmt.HistoryEntry, idx int) (benchfmt.HistoryEntry, error) {
	i := idx
	if i < 0 {
		i += len(entries)
	}
	if i < 0 || i >= len(entries) {
		return benchfmt.HistoryEntry{}, fmt.Errorf("index %d out of range (history has %d entries)", idx, len(entries))
	}
	return entries[i], nil
}

// compare renders the per-configuration throughput deltas between the
// baseline a and candidate b, and reports whether any configuration present
// in both regressed by more than threshold. Configurations that appear in
// only one entry are listed but never counted as regressions — a changed
// sweep shape is a configuration change, not a slowdown.
func compare(a, b benchfmt.HistoryEntry, threshold float64) (report string, regressed bool) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "baseline:  %s  (build %s, class %s, parallel %d)\n",
		a.Time, a.Build, a.Class, a.Parallel)
	fmt.Fprintf(&sb, "candidate: %s  (build %s, class %s, parallel %d)\n",
		b.Time, b.Build, b.Class, b.Parallel)
	if a.Class != b.Class || a.Parallel != b.Parallel {
		fmt.Fprintf(&sb, "note: entries were recorded under different configurations; deltas are not like-for-like\n")
	}
	fmt.Fprintln(&sb)

	base := make(map[string]benchfmt.Result, len(a.Results))
	for _, r := range a.Results {
		base[r.Key()] = r
	}
	seen := make(map[string]bool, len(b.Results))

	fmt.Fprintf(&sb, "%-12s %14s %14s %9s\n", "config", "base acc/s", "cand acc/s", "delta")
	for _, rb := range b.Results {
		key := rb.Key()
		seen[key] = true
		ra, ok := base[key]
		if !ok {
			fmt.Fprintf(&sb, "%-12s %14s %14.0f %9s  (new)\n", key, "-", rb.AccessesPerSec, "-")
			continue
		}
		delta := 0.0
		if ra.AccessesPerSec > 0 {
			delta = (rb.AccessesPerSec - ra.AccessesPerSec) / ra.AccessesPerSec
		}
		mark := ""
		if delta < -threshold {
			mark = "  << regression"
			regressed = true
		}
		fmt.Fprintf(&sb, "%-12s %14.0f %14.0f %+8.1f%%%s\n",
			key, ra.AccessesPerSec, rb.AccessesPerSec, delta*100, mark)
	}
	var gone []string
	for key := range base {
		if !seen[key] {
			gone = append(gone, key)
		}
	}
	sort.Strings(gone)
	for _, key := range gone {
		fmt.Fprintf(&sb, "%-12s %14.0f %14s %9s  (removed)\n", key, base[key].AccessesPerSec, "-", "-")
	}

	if a.AccessesPerSec > 0 {
		agg := (b.AccessesPerSec - a.AccessesPerSec) / a.AccessesPerSec
		fmt.Fprintf(&sb, "\naggregate: %.0f -> %.0f accesses/s (%+.1f%%)\n",
			a.AccessesPerSec, b.AccessesPerSec, agg*100)
	}
	return sb.String(), regressed
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
