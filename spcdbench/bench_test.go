package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spcd/internal/workloads"
)

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames)
	}
	check := func(kind string, declared []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(declared) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(got), len(declared))
			return
		}
		for i, d := range declared {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], code reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func testRunner(t *testing.T, name string) *runner {
	t.Helper()
	spec, err := specFor(name, workloads.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// requireMetrics checks that res is correct and carries every metric of
// defs with its declared unit.
func requireMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r := testRunner(t, name)
			res := runMeasure(io.Discard, r, time.Millisecond)
			requireMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
				}
			}
			res, err := runLedger(io.Discard, r, filepath.Join(t.TempDir(), "spans.csv.gz"))
			if err != nil {
				t.Fatal(err)
			}
			// runLedger marks a simulation failed when its traced digest
			// differs from the untraced one, so Correct covers that check.
			requireMetrics(t, res, perLayer)
		})
	}
}

// truncatedWorkload ends thread 0's stream after its first batch but keeps
// the initialization phase.
type truncatedWorkload struct{ workloads.Workload }

func (w truncatedWorkload) NewRun(seed int64) workloads.Run {
	inner := w.Workload.NewRun(seed)
	return &truncatedRun{Run: inner, init: inner.(workloads.Initializer)}
}

type truncatedRun struct {
	workloads.Run
	init  workloads.Initializer
	calls int
}

func (r *truncatedRun) Next(t int, buf []workloads.Access) int {
	if t == 0 {
		if r.calls > 0 {
			return 0
		}
		r.calls++
	}
	return r.Run.Next(t, buf)
}

func (r *truncatedRun) NextInit(buf []workloads.InitAccess) int { return r.init.NextInit(buf) }

// initDroppingWorkload hides the run's workloads.Initializer, the mistake
// a wrapper makes when it forwards only Next: the engine then skips the
// serial initialization phase without an error.
type initDroppingWorkload struct{ workloads.Workload }

func (w initDroppingWorkload) NewRun(seed int64) workloads.Run {
	return struct{ workloads.Run }{w.Workload.NewRun(seed)}
}

func TestBrokenStreamsAreCounted(t *testing.T) {
	for name, wrap := range map[string]func(workloads.Workload) workloads.Workload{
		"truncated":     func(w workloads.Workload) workloads.Workload { return truncatedWorkload{w} },
		"init-dropping": func(w workloads.Workload) workloads.Workload { return initDroppingWorkload{w} },
	} {
		t.Run(name, func(t *testing.T) {
			r := testRunner(t, "npb-private")
			r.spec.newWorkload = func(kernel string, threads int, class workloads.Class) (workloads.Workload, error) {
				w, err := newNPB(kernel, threads, class)
				if err != nil {
					return nil, err
				}
				return wrap(w), nil
			}
			res := runMeasure(io.Discard, r, time.Millisecond)
			if res.Correct || res.Failed != res.Attempted {
				t.Errorf("untraced: correct=%v failed=%d of %d, want every simulation failed", res.Correct, res.Failed, res.Attempted)
			}
			res, err := runLedger(io.Discard, r, filepath.Join(t.TempDir(), "spans.csv.gz"))
			if err != nil {
				t.Fatal(err)
			}
			if v := res.Metrics["bench.fail_frac"].Value; v != 1 {
				t.Errorf("traced: bench.fail_frac = %v, want 1", v)
			}
		})
	}
}
