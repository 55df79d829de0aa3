package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spcd"
)

var update = flag.Bool("update", false, "rewrite the golden CSV from the current output")

// testOptions is a small, fast sweep (ClassTest, two kernels, two policies)
// that still exercises the full report pipeline: normalization tables and
// Table II (os+spcd present) plus the metadata header.
func testOptions(parallel int) options {
	return options{
		class:    "test",
		reps:     2,
		kernels:  []string{"CG", "SP"},
		policies: []string{"os", "spcd"},
		threads:  8,
		seed:     0,
		parallel: parallel,
	}
}

// renderReport runs the sweep and renders the CSV export to a buffer.
func renderReport(t *testing.T, o options) []byte {
	t.Helper()
	header, tables, err := buildReport(o, nil)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	var buf bytes.Buffer
	if err := renderCSV(&buf, header, tables); err != nil {
		t.Fatalf("renderCSV: %v", err)
	}
	return buf.Bytes()
}

// normalizeBuild replaces the `# build:` metadata line, which embeds the git
// revision and Go version of the test binary, with a stable placeholder so
// the golden file does not churn on every commit or toolchain bump.
func normalizeBuild(b []byte) []byte {
	lines := strings.Split(string(b), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "# build:") {
			lines[i] = "# build: <build>"
		}
	}
	return []byte(strings.Join(lines, "\n"))
}

// TestCSVGolden pins the CSV schema: the run-metadata header lines and the
// per-table layout (title comment, column row, data rows). Run with -update
// to accept intentional schema or model changes.
func TestCSVGolden(t *testing.T) {
	got := normalizeBuild(renderReport(t, testOptions(1)))
	golden := filepath.Join("testdata", "golden.csv")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("CSV output differs from %s.\nRe-run with -update if the change is intentional.\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestParallelOutputByteIdentical asserts the tentpole guarantee at the CLI
// layer: the rendered report (header + tables + CSV) is byte-for-byte the
// same whether the sweep ran sequentially or on a worker pool.
func TestParallelOutputByteIdentical(t *testing.T) {
	base := renderReport(t, testOptions(1))
	for _, workers := range []int{4, 16} {
		got := renderReport(t, testOptions(workers))
		if !bytes.Equal(base, got) {
			t.Errorf("-parallel %d output differs from -parallel 1\n--- parallel 1 ---\n%s\n--- parallel %d ---\n%s",
				workers, base, workers, got)
		}
	}
}

// TestCheckMetric: an unknown -metric, which once printed an all-n/a table
// and exited 0, is rejected with the list of valid names; every name in
// spcd.AllMetrics and the empty default are accepted.
func TestCheckMetric(t *testing.T) {
	for _, name := range []string{"all", "tme", "L2MPKI"} {
		err := checkMetric(name)
		if err == nil {
			t.Errorf("checkMetric(%q) accepted an unknown metric", name)
			continue
		}
		if !strings.Contains(err.Error(), "l2mpki") {
			t.Errorf("checkMetric(%q) = %v; want the valid names listed", name, err)
		}
	}
	if err := checkMetric(""); err != nil {
		t.Errorf("checkMetric(\"\") = %v", err)
	}
	for _, m := range spcd.AllMetrics {
		if err := checkMetric(string(m)); err != nil {
			t.Errorf("checkMetric(%q) = %v", m, err)
		}
	}
}
