package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spcd/internal/benchfmt"
)

func entry(t, build string, results ...benchfmt.Result) benchfmt.HistoryEntry {
	var total float64
	for _, r := range results {
		total += r.AccessesPerSec
	}
	return benchfmt.HistoryEntry{
		Time:  t,
		Build: build,
		File: benchfmt.File{
			Class: "small", Threads: 32, Parallel: 1,
			AccessesPerSec: total / float64(len(results)),
			Results:        results,
		},
	}
}

func res(kernel, policy string, accPerSec float64) benchfmt.Result {
	return benchfmt.Result{Kernel: kernel, Policy: policy, Class: "small",
		SimAccesses: 1e6, AccessesPerSec: accPerSec}
}

// A >threshold slowdown in any configuration must be flagged as a
// regression — this is the contract CI relies on for a nonzero exit.
func TestCompareFlagsRegression(t *testing.T) {
	a := entry("2026-01-01T00:00:00Z", "aaaa", res("CG", "os", 1000), res("CG", "spcd", 2000))
	b := entry("2026-01-02T00:00:00Z", "bbbb", res("CG", "os", 1010), res("CG", "spcd", 1500)) // -25%

	report, regressed := compare(a, b, 0.10)
	if !regressed {
		t.Fatalf("25%% slowdown at threshold 10%% not flagged as regression; report:\n%s", report)
	}
	if !strings.Contains(report, "<< regression") {
		t.Errorf("report does not mark the regressed row:\n%s", report)
	}
	if strings.Count(report, "<< regression") != 1 {
		t.Errorf("want exactly one regressed row (CG/spcd), report:\n%s", report)
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	a := entry("2026-01-01T00:00:00Z", "aaaa", res("CG", "os", 1000), res("CG", "spcd", 2000))
	b := entry("2026-01-02T00:00:00Z", "bbbb", res("CG", "os", 950), res("CG", "spcd", 1900)) // -5%

	report, regressed := compare(a, b, 0.10)
	if regressed {
		t.Fatalf("5%% slowdown at threshold 10%% wrongly flagged; report:\n%s", report)
	}
}

// Configurations present in only one entry are reported but never counted
// as regressions: a reshaped sweep is not a slowdown.
func TestCompareShapeChangeIsNotRegression(t *testing.T) {
	a := entry("2026-01-01T00:00:00Z", "aaaa", res("CG", "os", 1000), res("SP", "os", 1000))
	b := entry("2026-01-02T00:00:00Z", "bbbb", res("CG", "os", 1000), res("FT", "os", 10))

	report, regressed := compare(a, b, 0.10)
	if regressed {
		t.Fatalf("added/removed configs flagged as regression; report:\n%s", report)
	}
	if !strings.Contains(report, "(new)") || !strings.Contains(report, "(removed)") {
		t.Errorf("report does not note the shape change:\n%s", report)
	}
}

func TestPickNegativeIndices(t *testing.T) {
	entries := []benchfmt.HistoryEntry{
		entry("t0", "a", res("CG", "os", 1)),
		entry("t1", "b", res("CG", "os", 2)),
		entry("t2", "c", res("CG", "os", 3)),
	}
	for _, tc := range []struct {
		idx  int
		want string
	}{{-1, "t2"}, {-2, "t1"}, {-3, "t0"}, {0, "t0"}, {2, "t2"}} {
		e, err := pick(entries, tc.idx)
		if err != nil {
			t.Fatalf("pick(%d): %v", tc.idx, err)
		}
		if e.Time != tc.want {
			t.Errorf("pick(%d) = %s, want %s", tc.idx, e.Time, tc.want)
		}
	}
	for _, bad := range []int{3, -4} {
		if _, err := pick(entries, bad); err == nil {
			t.Errorf("pick(%d): want out-of-range error", bad)
		}
	}
}

// End-to-end through the history file: append two entries with a synthetic
// regression, read them back, and confirm the comparison trips.
func TestHistoryRoundTripRegression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	a := entry("2026-01-01T00:00:00Z", "aaaa", res("CG", "spcd", 2000))
	b := entry("2026-01-02T00:00:00Z", "bbbb", res("CG", "spcd", 1000)) // -50%
	for _, e := range []benchfmt.HistoryEntry{a, b} {
		if err := benchfmt.AppendHistory(path, e); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := benchfmt.ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("read %d entries, want 2", len(entries))
	}
	ea, err := pick(entries, -2)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := pick(entries, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, regressed := compare(ea, eb, 0.10); !regressed {
		t.Fatal("50% slowdown through the history file not detected")
	}
}

// Records written before the engine lost its intra-run worker knob carry
// "shards" and "shard_axis" keys. The committed history still holds such
// entries, so they must keep decoding and comparing against new ones.
func TestLegacyHistoryEntryStillDecodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	legacy := `{"time":"2026-01-01T00:00:00Z","build":"aaaa","class":"small","threads":32,"parallel":1,"shards":0,` +
		`"go_version":"go1.24.0","num_cpu":1,"aggregate_accesses_per_sec":2000,` +
		`"shard_axis":[{"shards":0,"aggregate_accesses_per_sec":2000,"speedup_vs_first":1}],` +
		`"results":[{"kernel":"CG","policy":"spcd","class":"small","sim_accesses":1000000,"accesses_per_sec":2000}]}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := benchfmt.AppendHistory(path, entry("2026-01-02T00:00:00Z", "bbbb", res("CG", "spcd", 1000))); err != nil {
		t.Fatal(err)
	}
	entries, err := benchfmt.ReadHistory(path)
	if err != nil {
		t.Fatalf("legacy entry does not decode: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("read %d entries, want 2", len(entries))
	}
	a := entries[0]
	if a.Build != "aaaa" || a.Parallel != 1 || len(a.Results) != 1 || a.Results[0].AccessesPerSec != 2000 {
		t.Fatalf("legacy entry decoded wrong: %+v", a)
	}
	report, regressed := compare(a, entries[1], 0.10)
	if !regressed {
		t.Fatalf("50%% slowdown against a legacy entry not detected; report:\n%s", report)
	}
	if strings.Contains(report, "not like-for-like") {
		t.Errorf("legacy entry reads as a different configuration; report:\n%s", report)
	}
}
