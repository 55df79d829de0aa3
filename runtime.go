package spcd

import (
	"io"

	"spcd/internal/engine"
	"spcd/internal/policy"
	"spcd/internal/runtimeobs"
)

// RuntimeCollector records host-side wall-clock spans — where the *host*
// spends time running a simulation (engine init / simulate / finalize
// phases, sweep-pool occupancy) — as opposed to a Probe's
// virtual-time view of the simulated machine (see internal/runtimeobs).
//
// Attaching a collector never changes simulation results: the
// instrumentation is strictly one-way (simulation code emits host-time
// stamps into the collector and never reads one back; the
// runtimeobs-isolation spcdlint rule enforces this), so runtime-observed
// runs stay byte-identical to unobserved ones. A nil collector disables
// runtime observability at zero cost.
type RuntimeCollector = runtimeobs.Collector

// NewRuntimeCollector creates a host-time collector whose stamps count
// from now. One collector can observe many runs (a whole sweep).
func NewRuntimeCollector() *RuntimeCollector { return runtimeobs.New() }

// RunWithRuntime is Run with host-side runtime observability: the
// collector records the run's wall-clock phases (init / simulate /
// finalize). The returned Metrics are identical to an unobserved run's.
func RunWithRuntime(m *Machine, w Workload, policyName string, seed int64, rt *RuntimeCollector) (Metrics, error) {
	p, err := policy.Tuned(policyName, w, m)
	if err != nil {
		return Metrics{}, err
	}
	return engine.Run(engine.Config{Machine: m, Workload: w, Policy: p, Seed: seed,
		Runtime: rt.Proc("run " + w.Name())})
}

// WriteRuntimeTrace exports the collector's spans as a Chrome trace with
// host-time lanes ("host: ..." process groups), loadable in
// chrome://tracing or Perfetto alongside — or merged with — the
// virtual-time trace.
func WriteRuntimeTrace(w io.Writer, rt *RuntimeCollector) error {
	return runtimeobs.WriteChromeTrace(w, rt)
}

// WriteRuntimeSummary exports the collector's summary (per engine run the
// init / simulate / finalize host time, per sweep pool its occupancy and
// queue latency) as an indented JSON document.
func WriteRuntimeSummary(w io.Writer, rt *RuntimeCollector) error {
	return runtimeobs.WriteSummary(w, rt)
}

// WriteRuntimeArtifacts writes runtime_trace.json and runtime_summary.json
// under dir — the same artifact pair the tools' -runtimeobs flag produces.
func WriteRuntimeArtifacts(dir string, rt *RuntimeCollector) error {
	return runtimeobs.WriteArtifacts(dir, rt)
}
