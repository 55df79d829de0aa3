package spcd_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spcd"
	"spcd/internal/scenario"
)

// The churn-robustness gate: the long-running multi-tenant scenario — the
// canonical schedule exercises arrival, phase switch and departure in one
// run — must produce byte-identical per-tenant metrics at every RunJobs
// parallelism, with and without the canonical fault plan. determinism_test.go proves this for single runs; churn is the
// adversarial case because membership changes, admission retries and the
// governor's backoff all thread state across interval boundaries.

// churnSpec is the canonical acceptance schedule: >= 3 tenants, >= 2 phase
// switches, >= 1 departure.
func churnSpec(seed int64) spcd.Scenario {
	s := spcd.DefaultScenario(3, spcd.ClassTest, seed)
	s.Policy = "spcd"
	return s
}

func TestChurnDeterminismAcrossParallelism(t *testing.T) {
	plan := spcd.CanonicalFaultPlan(42)
	var specs []spcd.Scenario
	for seed := int64(40); seed < 44; seed++ {
		s := churnSpec(seed)
		specs = append(specs, s)
		f := churnSpec(seed)
		f.Faults = &plan // the fault-injected leg must hold the same contract
		specs = append(specs, f)
	}
	seq, errs1 := scenario.RunJobs(specs, 1)
	par, errs8 := scenario.RunJobs(specs, 8)
	for i := range specs {
		if errs1[i] != nil || errs8[i] != nil {
			t.Fatalf("job %d: %v / %v", i, errs1[i], errs8[i])
		}
		if seq[i].Render() != par[i].Render() {
			t.Errorf("job %d: reports differ between parallelism 1 and 8\n--- p1 ---\n%s--- p8 ---\n%s",
				i, seq[i].Render(), par[i].Render())
		}
	}
}

// TestChurnScenarioCompletesUnderFaults: the canonical schedule drains under
// the canonical fault plan — every tenant reaches a terminal state and the
// governor's per-interval budget holds over the emitted adaptation events.
func TestChurnScenarioCompletesUnderFaults(t *testing.T) {
	plan := spcd.CanonicalFaultPlan(42)
	s := churnSpec(42)
	s.Faults = &plan
	s.Probe = spcd.NewProbe(spcd.ObsOptions{})
	rep, err := spcd.Serve(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated {
		t.Error("faulted scenario truncated at MaxIntervals")
	}
	if rep.FaultDigest == "" {
		t.Error("active plan recorded no fault digest")
	}
	for _, tm := range rep.Tenants {
		switch tm.Status {
		case "completed", "departed", "unserved":
		default:
			t.Errorf("tenant %s ended in non-terminal state %s", tm.ID, tm.Status)
		}
	}
	perInterval := map[uint64]uint64{}
	for _, ev := range s.Probe.Events() {
		if ev.Cat != "scenario" || ev.Name != "remap.applied" {
			continue
		}
		var moved, interval uint64
		for _, a := range ev.Args {
			switch a.Key {
			case "moved":
				moved = a.UintVal()
			case "interval":
				interval = a.UintVal()
			}
		}
		perInterval[interval] += moved
	}
	for iv, moved := range perInterval {
		if moved > uint64(s.MigrationBudget) {
			t.Errorf("interval %d applied %d moves, budget %d", iv, moved, s.MigrationBudget)
		}
	}
}

// TestGoldenScenario pins a small two-tenant scenario's full report — the
// per-tenant Metrics included — per policy. Regenerate with
// `go test -run TestGoldenScenario -update` ONLY when a serving-semantics
// change is intended, and say so in the commit.
func TestGoldenScenario(t *testing.T) {
	for _, policy := range []string{"static", "spcd"} {
		t.Run(policy, func(t *testing.T) {
			s := spcd.DefaultScenario(2, spcd.ClassTest, 42)
			s.Policy = policy
			rep, err := spcd.Serve(s)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Render()
			path := filepath.Join("testdata", fmt.Sprintf("golden_scenario_%s.txt", policy))
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update on a trusted tree): %v", err)
			}
			if got != string(want) {
				t.Errorf("scenario report diverged from golden %s\n--- got ---\n%s--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// TestScenarioOnlineBeatsStatic: the serving-mode headline — on the
// churn-free schedule (everyone resident from time zero), online SPCD must
// beat the static initial placement on cross-socket c2c. Runs through
// Experiment.Scenario, which also pins that policies share tenant streams.
func TestScenarioOnlineBeatsStatic(t *testing.T) {
	spec := spcd.DefaultScenario(3, spcd.ClassTest, 42)
	for i := range spec.Tenants {
		spec.Tenants[i].ArriveAt = 0
		spec.Tenants[i].DepartAt = 0
		spec.Tenants[i].Phases = spec.Tenants[i].Phases[:1]
	}
	res, err := spcd.Experiment{
		Policies: []string{"static", "spcd"},
		Reps:     2,
		BaseSeed: 42,
	}.Scenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := res.MeanCrossSocketC2C("static")
	if err != nil {
		t.Fatal(err)
	}
	on, err := res.MeanCrossSocketC2C("spcd")
	if err != nil {
		t.Fatal(err)
	}
	if on >= st {
		t.Errorf("online spcd cross-socket c2c %.1f did not beat static %.1f", on, st)
	}
	for _, pol := range []string{"static", "spcd"} {
		if got := len(res.ByPolicy[pol]); got != 2 {
			t.Errorf("policy %s has %d reports, want 2", pol, got)
		}
	}
}
