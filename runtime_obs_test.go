package spcd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"spcd"
)

// renderRuntimeLeg runs the CG experiment (os + spcd, two reps), optionally
// under a fault plan, and renders every run's metrics byte for byte.
// rt, when non-nil, attaches the host-time collector — whose presence is
// exactly what this file proves changes nothing.
func renderRuntimeLeg(t *testing.T, faults *spcd.FaultPlan, rt *spcd.RuntimeCollector) string {
	t.Helper()
	w, err := spcd.NPB("CG", 8, spcd.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	e := spcd.Experiment{
		Machine:  spcd.DefaultMachine(),
		Workload: w,
		Policies: []string{"os", "spcd"},
		Reps:     2,
		BaseSeed: 7,
		Faults:   faults,
		Runtime:  rt,
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, pol := range res.Policies() {
		for _, m := range res.ByPolicy[pol] {
			if m.CommMatrix != nil {
				if err := spcd.WriteMatrixCSV(&buf, m.CommMatrix); err != nil {
					t.Fatal(err)
				}
				m.CommMatrix = nil
			}
			fmt.Fprintf(&buf, "%s: %+v\n", pol, m)
		}
	}
	return buf.String()
}

// TestRuntimeObsByteIdentity is the one-way contract's acceptance gate:
// attaching a RuntimeCollector must leave simulation results byte-identical,
// on the fault-free path and under the canonical fault plan. The spcdlint
// runtimeobs-isolation rule proves no host-time value can flow back
// statically; this proves it dynamically, metrics byte for byte.
func TestRuntimeObsByteIdentity(t *testing.T) {
	chaos := spcd.CanonicalFaultPlan(9)
	legs := []struct {
		name   string
		faults *spcd.FaultPlan
	}{
		{"sequential", nil},
		{"sequential-chaos", &chaos},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			base := renderRuntimeLeg(t, leg.faults, nil)
			rt := spcd.NewRuntimeCollector()
			got := renderRuntimeLeg(t, leg.faults, rt)
			if got != base {
				t.Errorf("metrics with RuntimeCollector attached differ from unobserved run")
			}
			// The observed leg must actually have observed something, or the
			// identity above proves nothing.
			var buf bytes.Buffer
			if err := spcd.WriteRuntimeSummary(&buf, rt); err != nil {
				t.Fatal(err)
			}
			var sum runtimeSummaryDoc
			if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			if len(sum.Procs) == 0 {
				t.Fatal("runtime summary recorded no processes")
			}
		})
	}
}

// runtimeSummaryDoc mirrors the runtime_summary.json schema the tools'
// -runtimeobs flag writes (internal/runtimeobs.Summary).
type runtimeSummaryDoc struct {
	SchemaVersion int     `json:"schema_version"`
	WallSeconds   float64 `json:"wall_seconds"`
	Procs         []struct {
		Name        string  `json:"name"`
		Kind        string  `json:"kind"`
		WallSeconds float64 `json:"wall_seconds"`
		Engine      *struct {
			InitSeconds     float64 `json:"init_seconds"`
			SimulateSeconds float64 `json:"simulate_seconds"`
			FinalizeSeconds float64 `json:"finalize_seconds"`
		} `json:"engine"`
		Sweep *struct {
			Workers     int     `json:"workers"`
			Experiments int     `json:"experiments"`
			Occupancy   float64 `json:"occupancy"`
		} `json:"sweep"`
	} `json:"procs"`
}

// TestRuntimeSummaryDiagnostics runs one simulation under the collector
// and checks the engine's phase split is present and sane: simulate work
// recorded, every phase non-negative, and the phases fitting inside the
// run's wall time.
func TestRuntimeSummaryDiagnostics(t *testing.T) {
	w, err := spcd.NPB("CG", 8, spcd.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	rt := spcd.NewRuntimeCollector()
	if _, err := spcd.RunWithRuntime(spcd.DefaultMachine(), w, "spcd", 1, rt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spcd.WriteRuntimeSummary(&buf, rt); err != nil {
		t.Fatal(err)
	}
	var sum runtimeSummaryDoc
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("summary does not parse: %v\n%s", err, buf.String())
	}
	if len(sum.Procs) != 1 || sum.Procs[0].Kind != "engine" || sum.Procs[0].Engine == nil {
		t.Fatalf("want exactly one engine process in summary:\n%s", buf.String())
	}
	p := sum.Procs[0]
	e := p.Engine
	if e.SimulateSeconds <= 0 {
		t.Errorf("no recorded work: simulate_seconds = %g", e.SimulateSeconds)
	}
	if e.InitSeconds < 0 || e.FinalizeSeconds < 0 {
		t.Errorf("negative phase: init %g, finalize %g", e.InitSeconds, e.FinalizeSeconds)
	}
	if phases := e.InitSeconds + e.SimulateSeconds + e.FinalizeSeconds; phases > p.WallSeconds*(1+1e-9) {
		t.Errorf("phases sum to %g s, more than the run's %g s wall time", phases, p.WallSeconds)
	}
}
