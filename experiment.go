package spcd

import (
	"errors"
	"fmt"
	"sort"

	"spcd/internal/obs"
	"spcd/internal/stats"
	"spcd/internal/sweep"
)

// Metric identifies one of the quantities the paper's evaluation reports.
type Metric string

// The metrics of Figures 8-16 and Table II.
const (
	MetricTime       Metric = "time"       // execution time, seconds (Fig. 8)
	MetricL2MPKI     Metric = "l2mpki"     // L2 misses per kilo-instruction (Fig. 9)
	MetricL3MPKI     Metric = "l3mpki"     // L3 misses per kilo-instruction (Fig. 10)
	MetricC2C        Metric = "c2c"        // cache-to-cache transactions (Fig. 11)
	MetricProcEnergy Metric = "procenergy" // total processor energy, J (Fig. 12)
	MetricDRAMEnergy Metric = "dramenergy" // total DRAM energy, J (Fig. 13)
	MetricProcEPI    Metric = "procepi"    // processor energy per instruction, nJ (Fig. 14)
	MetricDRAMEPI    Metric = "dramepi"    // DRAM energy per instruction, nJ (Fig. 15)
	MetricMigrations Metric = "migrations" // migration events (Table II)
	MetricDetectOvh  Metric = "detectovh"  // detection overhead, % (Fig. 16)
	MetricMappingOvh Metric = "mappingovh" // mapping overhead, % (Fig. 16)
)

// Metrics lists all report metrics in presentation order.
var AllMetrics = []Metric{
	MetricTime, MetricL2MPKI, MetricL3MPKI, MetricC2C,
	MetricProcEnergy, MetricDRAMEnergy, MetricProcEPI, MetricDRAMEPI,
	MetricMigrations, MetricDetectOvh, MetricMappingOvh,
}

// MetricValue extracts a metric from run metrics.
func MetricValue(m Metrics, metric Metric) (float64, error) {
	switch metric {
	case MetricTime:
		return m.ExecSeconds, nil
	case MetricL2MPKI:
		return m.L2MPKI, nil
	case MetricL3MPKI:
		return m.L3MPKI, nil
	case MetricC2C:
		return float64(m.Cache.C2CTotal()), nil
	case MetricProcEnergy:
		return m.Energy.ProcessorJoules, nil
	case MetricDRAMEnergy:
		return m.Energy.DRAMJoules, nil
	case MetricProcEPI:
		return m.Energy.ProcPerInstrNJ, nil
	case MetricDRAMEPI:
		return m.Energy.DRAMPerInstrNJ, nil
	case MetricMigrations:
		return float64(m.Migrations), nil
	case MetricDetectOvh:
		return m.DetectionOverheadPct, nil
	case MetricMappingOvh:
		return m.MappingOverheadPct, nil
	}
	return 0, fmt.Errorf("spcd: unknown metric %q", metric)
}

// Experiment runs one workload under several policies, repeated Reps times
// with distinct seeds, mirroring the paper's methodology (§V-A: repeated
// runs, averages, 95% confidence intervals).
type Experiment struct {
	Machine  *Machine
	Workload Workload
	Policies []string // defaults to PolicyNames
	Reps     int      // defaults to 3 (the paper uses 10)
	BaseSeed int64    // seeds are BaseSeed+1 .. BaseSeed+Reps

	// Parallelism bounds how many simulations run concurrently. Each run
	// is an independent, internally single-threaded simulation, so they
	// parallelize perfectly. 0 selects GOMAXPROCS; 1 forces sequential
	// execution.
	Parallelism int

	// Observe, if set, is called once per run before it starts and may
	// return a fresh Probe to record that run's time series and event
	// trace (nil leaves the run unobserved). It must return a distinct
	// Probe per call — one Probe observes exactly one run — and may be
	// called from concurrent worker goroutines.
	Observe func(policyName string, rep int) *Probe

	// Faults, when set, injects the plan's faults into every run (each run
	// gets its own deterministic injector derived from the plan and the run
	// seed). Nil or an inactive plan leaves the runs fault-free.
	Faults *FaultPlan

	// Runtime, when set, records host wall-clock spans for the pool and
	// every run (see RuntimeCollector). Strictly one-way, so results are
	// unchanged; nil disables at zero cost.
	Runtime *RuntimeCollector
}

// WithFaults returns a copy of the experiment that runs every simulation
// under the given fault plan. See FaultPlan and internal/faultinject for the
// determinism contract.
func (e Experiment) WithFaults(plan FaultPlan) Experiment {
	e.Faults = &plan
	return e
}

// Results holds all runs of an experiment, indexed by policy.
type Results struct {
	Workload string
	ByPolicy map[string][]Metrics
	order    []string
}

// Run executes the experiment on the deterministic parallel sweep runner
// (internal/sweep): policy × rep configs fan out over a bounded worker
// pool, every run gets fresh engine/VM/cache instances, and the results
// come back in canonical (policy-major, rep-minor) order regardless of the
// worker count. Rep r runs with seed BaseSeed+r+1 under every policy — the
// paper's methodology compares policies on identical workload streams.
func (e Experiment) Run() (*Results, error) {
	if e.Machine == nil || e.Workload == nil {
		return nil, errors.New("spcd: experiment needs Machine and Workload")
	}
	policies := e.Policies
	if len(policies) == 0 {
		policies = PolicyNames
	}
	reps := e.Reps
	if reps <= 0 {
		reps = 3
	}
	configs := make([]sweep.Config, 0, len(policies)*reps)
	for _, name := range policies {
		for r := 0; r < reps; r++ {
			configs = append(configs, sweep.Config{Workload: e.Workload, Policy: name, Rep: r})
		}
	}
	runner := sweep.Runner{
		Machine:     e.Machine,
		Parallelism: e.Parallelism,
		Seeder:      func(c sweep.Config) int64 { return e.BaseSeed + int64(c.Rep) + 1 },
		FaultPlan:   e.Faults,
		Runtime:     e.Runtime,
	}
	if e.Observe != nil {
		//lint:ignore determinism-flow Observe is a user-supplied probe factory invoked once per run before simulation; probes record events, they do not steer them.
		runner.Observe = func(c sweep.Config) *obs.Probe { return e.Observe(c.Policy, c.Rep) }
	}
	rs, err := runner.Run(configs)
	if err != nil {
		return nil, err
	}
	if err := sweep.FirstErr(rs); err != nil {
		return nil, fmt.Errorf("spcd: %w", err)
	}
	res := &Results{
		Workload: e.Workload.Name(),
		ByPolicy: make(map[string][]Metrics, len(policies)),
		order:    append([]string(nil), policies...),
	}
	i := 0
	for _, name := range policies {
		ms := make([]Metrics, reps)
		for r := 0; r < reps; r++ {
			ms[r] = rs[i].Metrics
			i++
		}
		res.ByPolicy[name] = ms
	}
	return res, nil
}

// RunParallel is Run with an explicit worker bound: workers <= 0 selects
// GOMAXPROCS, 1 forces sequential execution. Results are identical for
// every value — parallelism only changes wall-clock time.
func (e Experiment) RunParallel(workers int) (*Results, error) {
	e.Parallelism = workers
	return e.Run()
}

// Policies returns the policy names in execution order.
func (r *Results) Policies() []string {
	if r.order != nil {
		return append([]string(nil), r.order...)
	}
	out := make([]string, 0, len(r.ByPolicy))
	for name := range r.ByPolicy {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Values extracts a metric across a policy's repetitions.
func (r *Results) Values(policyName string, metric Metric) ([]float64, error) {
	runs, ok := r.ByPolicy[policyName]
	if !ok {
		return nil, fmt.Errorf("spcd: no runs for policy %q", policyName)
	}
	out := make([]float64, len(runs))
	for i, m := range runs {
		v, err := MetricValue(m, metric)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Summary aggregates a metric across a policy's repetitions (mean, standard
// deviation, 95% Student-t confidence interval).
func (r *Results) Summary(policyName string, metric Metric) (stats.Summary, error) {
	vals, err := r.Values(policyName, metric)
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(vals), nil
}

// NormalizedMean returns the mean of the metric under policyName divided by
// its mean under baseline — the "normalized to the OS" values of the
// paper's figures.
func (r *Results) NormalizedMean(policyName string, metric Metric, baseline string) (float64, error) {
	p, err := r.Summary(policyName, metric)
	if err != nil {
		return 0, err
	}
	b, err := r.Summary(baseline, metric)
	if err != nil {
		return 0, err
	}
	return stats.Normalize(p.Mean, b.Mean)
}

// PercentChange returns the relative change (percent) of the metric under
// policyName versus baseline, as reported in Table II. A zero or NaN
// baseline mean is an explicit error rather than a silent 0/NaN/±Inf cell.
func (r *Results) PercentChange(policyName string, metric Metric, baseline string) (float64, error) {
	p, err := r.Summary(policyName, metric)
	if err != nil {
		return 0, err
	}
	b, err := r.Summary(baseline, metric)
	if err != nil {
		return 0, err
	}
	return stats.PercentChange(p.Mean, b.Mean)
}
