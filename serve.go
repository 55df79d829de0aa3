package spcd

import (
	"errors"
	"fmt"

	"spcd/internal/scenario"
	"spcd/internal/sweep"
)

// Scenario describes a long-running multi-tenant serving run: a deterministic
// stream of tenant arrivals, phase switches, departures and completions that
// the placement policy must adapt to online (see internal/scenario for the
// schedule semantics and the determinism contract).
type Scenario = scenario.Spec

// ScenarioTenant is one application in a scenario's workload mix.
type ScenarioTenant = scenario.Tenant

// ScenarioPhase is one stretch of a tenant's lifetime on a single kernel.
type ScenarioPhase = scenario.Phase

// ScenarioReport is the outcome of one scenario run: run-level adaptation
// totals plus per-tenant serving metrics (status, admission history, and the
// slowdown distribution the SLO analysis reads p99 from).
type ScenarioReport = scenario.Report

// TenantMetrics is one tenant's serving outcome within a ScenarioReport.
type TenantMetrics = scenario.TenantMetrics

// ScenarioPolicyNames lists the serving placement modes: "static" (placed at
// admission, never moved), "os" (admission placement plus load-balancer
// churn), and the online detection policies "spcd", "tlb", "hwc".
var ScenarioPolicyNames = []string{"static", "os", "spcd", "tlb", "hwc"}

// Serve runs one scenario to completion and returns its report. The report
// is a pure function of the spec: byte-identical for the same spec
// regardless of host scheduling.
func Serve(spec Scenario) (*ScenarioReport, error) {
	return scenario.Run(spec)
}

// DefaultScenario builds the canonical churn schedule over nTenants tenants:
// staggered arrivals, a phase switch for every tenant after the first, and a
// departure for every third tenant. With nTenants >= 3 one run exercises
// arrival, phase switch and departure.
func DefaultScenario(nTenants int, class Class, seed int64) Scenario {
	return scenario.DefaultSpec(nTenants, class, seed)
}

// ScenarioResults holds repeated scenario runs grouped by policy, the
// serving-mode analogue of Results.
type ScenarioResults struct {
	ByPolicy map[string][]*ScenarioReport
	order    []string
}

// Policies returns the policy names in execution order.
func (r *ScenarioResults) Policies() []string {
	return append([]string(nil), r.order...)
}

// MeanP99 averages the per-run MeanP99 slowdown over a policy's reps — the
// SLO headline for that policy. It errors for an unknown policy.
func (r *ScenarioResults) MeanP99(policyName string) (float64, error) {
	reps, ok := r.ByPolicy[policyName]
	if !ok {
		return 0, fmt.Errorf("spcd: no scenario runs for policy %q", policyName)
	}
	sum := 0.0
	for _, rep := range reps {
		sum += rep.MeanP99()
	}
	return sum / float64(len(reps)), nil
}

// MeanCrossSocketC2C averages cross-socket cache-to-cache transactions over
// a policy's reps — the paper's mapping-quality metric on the serving axis.
func (r *ScenarioResults) MeanCrossSocketC2C(policyName string) (float64, error) {
	reps, ok := r.ByPolicy[policyName]
	if !ok {
		return 0, fmt.Errorf("spcd: no scenario runs for policy %q", policyName)
	}
	sum := 0.0
	for _, rep := range reps {
		sum += float64(rep.C2CCrossSocket)
	}
	return sum / float64(len(reps)), nil
}

// Scenario runs the given serving schedule under the experiment's policies ×
// reps on a bounded worker pool, mirroring Run's methodology on the serving
// axis: rep r uses master seed DeriveSeed(BaseSeed, "scenario/r<r>") under
// every policy — the key excludes the policy name, so policies under
// comparison serve identical tenant streams. The experiment's Workload field
// is ignored (the spec carries the workload mix); Machine, when set, fills a
// spec without one. Reports are byte-identical at every Parallelism.
func (e Experiment) Scenario(spec Scenario) (*ScenarioResults, error) {
	if len(spec.Tenants) == 0 {
		return nil, errors.New("spcd: scenario experiment needs tenants")
	}
	if spec.Machine == nil {
		spec.Machine = e.Machine
	}
	policies := e.Policies
	if len(policies) == 0 {
		policies = ScenarioPolicyNames
	}
	reps := e.Reps
	if reps <= 0 {
		reps = 3
	}
	specs := make([]Scenario, 0, len(policies)*reps)
	for _, name := range policies {
		for r := 0; r < reps; r++ {
			s := spec
			s.Policy = name
			s.MasterSeed = sweep.DeriveSeed(e.BaseSeed, fmt.Sprintf("scenario/r%d", r))
			if e.Faults != nil && s.Faults == nil {
				plan := *e.Faults
				s.Faults = &plan
			}
			specs = append(specs, s)
		}
	}
	reports, errs := scenario.RunJobs(specs, e.Parallelism)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("spcd: scenario %s rep %d: %w",
				specs[i].Policy, i%reps, err)
		}
	}
	res := &ScenarioResults{
		ByPolicy: make(map[string][]*ScenarioReport, len(policies)),
		order:    append([]string(nil), policies...),
	}
	i := 0
	for _, name := range policies {
		res.ByPolicy[name] = reports[i : i+reps]
		i += reps
	}
	return res, nil
}
