package runtimeobs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// almost compares floats to the tolerance the ns->seconds conversions
// warrant.
func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestNilCollectorIsFree pins the nil-probe contract: with runtime obs
// detached, every emit call is a no-op costing zero allocations — the same
// gate internal/obs runs on its hot path.
func TestNilCollectorIsFree(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(1000, func() {
		p := c.Proc("engine")
		l := p.Lane("worker 0")
		start := p.Now()
		l.SpanAt(SpanSimulate, start, c.Now(), -1)
		p.SetMeta("kind", "engine")
		p.SetMetaInt("workers", 4)
	})
	if allocs != 0 {
		t.Fatalf("nil-collector emit path allocates %v times per op; want 0", allocs)
	}
	if c.Now() != 0 {
		t.Fatalf("nil collector Now() = %d; want 0", c.Now())
	}
}

// engineFixture builds a collector whose engine proc has hand-placed
// stamps, so the summary math is checked against exact expectations
// (SpanAt takes explicit stamps precisely to make this deterministic).
//
// Timeline (ns): init 0-10, simulate 10-180, finalize 180-190; the run
// span covers 0-200.
func engineFixture() *Collector {
	c := New()
	p := c.Proc("run CG")
	p.SetMeta("kind", "engine")
	run := p.Lane("run")
	run.SpanAt(SpanInit, 0, 10, -1)
	run.SpanAt(SpanSimulate, 10, 180, -1)
	run.SpanAt(SpanFinalize, 180, 190, -1)
	run.SpanAt(SpanRun, 0, 200, -1)
	return c
}

func TestEngineSummaryMath(t *testing.T) {
	s := Summarize(engineFixture())
	if len(s.Procs) != 1 || s.Procs[0].Engine == nil {
		t.Fatalf("want one engine proc, got %+v", s.Procs)
	}
	e := s.Procs[0].Engine
	ns := func(v float64) float64 { return v * 1e9 } // expectations are in ns
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"init", ns(e.InitSeconds), 10},
		{"simulate", ns(e.SimulateSeconds), 170},
		{"finalize", ns(e.FinalizeSeconds), 10},
		{"proc wall", ns(s.Procs[0].WallSeconds), 200},
		{"summary wall", ns(s.WallSeconds), 200},
	}
	for _, c := range checks {
		if !almost(c.got, c.want) {
			t.Errorf("%s = %v; want %v", c.name, c.got, c.want)
		}
	}
}

func TestSweepSummaryMath(t *testing.T) {
	c := New()
	p := c.Proc("sweep")
	p.SetMeta("kind", "sweep")
	p.SetMetaInt("workers", 2)
	pool := p.Lane("sweep")
	w0 := p.Lane("worker 0")
	w1 := p.Lane("worker 1")
	w0.SpanAt(SpanExperiment, 0, 60, 0)
	w1.SpanAt(SpanExperiment, 10, 50, 1)
	w0.SpanAt(SpanExperiment, 70, 100, 2)
	pool.SpanAt(SpanRun, 0, 100, 3)
	s := Summarize(c)
	if len(s.Procs) != 1 || s.Procs[0].Sweep == nil {
		t.Fatalf("want one sweep proc, got %+v", s.Procs)
	}
	sw := s.Procs[0].Sweep
	if sw.Experiments != 3 || sw.Workers != 2 {
		t.Errorf("experiments/workers = %d/%d; want 3/2", sw.Experiments, sw.Workers)
	}
	if !almost(sw.Occupancy, 130.0/200.0) {
		t.Errorf("occupancy = %v; want %v", sw.Occupancy, 130.0/200.0)
	}
	if !almost(sw.QueueLatencyMeanSeconds*1e9, 80.0/3.0) {
		t.Errorf("queue latency mean = %v ns; want %v", sw.QueueLatencyMeanSeconds*1e9, 80.0/3.0)
	}
	if !almost(sw.QueueLatencyMaxSeconds*1e9, 70) {
		t.Errorf("queue latency max = %v ns; want 70", sw.QueueLatencyMaxSeconds*1e9)
	}
}

func TestChromeTraceExport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, engineFixture()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, buf.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"host: run CG"`, `"run"`, `"simulate"`, `"finalize"`, `kind=engine`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace lacks %s:\n%s", want, out)
		}
	}
}

func TestArtifactsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteArtifacts(dir, engineFixture()); err != nil {
		t.Fatal(err)
	}
	if err := CheckArtifacts(dir); err != nil {
		t.Fatalf("artifacts written by WriteArtifacts fail their own check: %v", err)
	}
}

func TestValidateSummaryRejects(t *testing.T) {
	marshal := func(s Summary) []byte {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	engine := func(e EngineSummary) ProcSummary {
		return ProcSummary{Name: "run", Kind: "engine", Engine: &e}
	}
	good := Summary{SchemaVersion: 2, Procs: []ProcSummary{engine(EngineSummary{SimulateSeconds: 1})}}
	if err := ValidateSummary(marshal(good)); err != nil {
		t.Errorf("engine summary with simulate work failed validation: %v", err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"no procs", marshal(Summary{SchemaVersion: 2})},
		// An engine proc that recorded no simulate span: the run was not
		// actually observed.
		{"engine without simulate work", marshal(Summary{SchemaVersion: 2, Procs: []ProcSummary{
			engine(EngineSummary{InitSeconds: 1, FinalizeSeconds: 1}),
		}})},
		{"sweep proc only", marshal(Summary{SchemaVersion: 2, Procs: []ProcSummary{{
			Name: "sweep", Kind: "sweep", Sweep: &SweepSummary{Workers: 1, Experiments: 1},
		}}})},
		{"negative phase", marshal(Summary{SchemaVersion: 2, Procs: []ProcSummary{
			engine(EngineSummary{InitSeconds: -1, SimulateSeconds: 1}),
		}})},
		{"truncated", []byte("{")},
	} {
		if err := ValidateSummary(tc.data); err == nil {
			t.Errorf("%s: summary passed validation", tc.name)
		}
	}
}
