// Command spcdbench is the repository benchmark. It runs one named workload
// of the SPCD simulator for a host-time budget, checks every simulated
// output, and prints its metrics as the last line of standard output, one
// JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off and reported as medians over the passes that fit in the budget. With
// -trace 1 the benchmark runs one untraced and one traced pass and prints
// the per-layer ledger instead. README.md lists the workloads, the metrics
// and which layer should move which end-to-end metric on which workload.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash spcdbench/run.sh --workload npb-shared --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"spcd/internal/workloads"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract: BENCHMARK.json at the repository root declares the same names
// and units, and the test holds the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_accesses_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_mib", "MiB"},
}

var perLayer = []metricDef{
	{"workloads.next_s", "s"},
	{"workloads.ns_per_access", "ns"},
	{"workloads.next_calls", "count"},
	{"vm.ns_per_access", "ns"},
	{"vm.host_s", "s"},
	{"vm.new_s", "s"},
	{"vm.tlb_misses", "count"},
	{"vm.faults_first_touch", "count"},
	{"vm.faults_induced", "count"},
	{"vm.present_cleared", "count"},
	{"vm.page_migrations", "count"},
	{"cache.ns_per_access", "ns"},
	{"cache.host_s", "s"},
	{"cache.new_s", "s"},
	{"cache.l1_misses", "count"},
	{"cache.l2_misses", "count"},
	{"cache.l3_misses", "count"},
	{"cache.c2c_same", "count"},
	{"cache.c2c_cross", "count"},
	{"cache.invalidations", "count"},
	{"cache.dram_remote", "count"},
	{"policy.init_s", "s"},
	{"policy.tick_s", "s"},
	{"policy.ticks", "count"},
	{"policy.remaps", "count"},
	{"policy.migrated_threads", "count"},
	{"core.faults_seen", "count"},
	{"core.comm_events", "count"},
	{"core.temporal_dropped", "count"},
	{"core.sampler_wakeups", "count"},
	{"core.pages_cleared", "count"},
	{"core.new_s", "s"},
	{"mapping.filter_evaluations", "count"},
	{"mapping.filter_triggers", "count"},
	{"mapping.trigger_ratio", "ratio"},
	{"mapping.computations", "count"},
	{"mapping.compute_s", "s"},
	{"trace.matrix_s", "s"},
	{"engine.runs", "count"},
	{"engine.rest_s", "s"},
	{"engine.sched_s", "s"},
	{"scenario.intervals", "count"},
	{"scenario.governor_deferrals", "count"},
	{"scenario.migrations", "count"},
	{"scenario.spcd.c2c_cross", "count"},
	{"scenario.os.c2c_cross", "count"},
	{"scenario.spcd.mean_p99_slowdown", "ratio"},
	{"scenario.os.mean_p99_slowdown", "ratio"},
	{"host.calib_s", "s"},
	{"bench.traced_wall_s", "s"},
	{"bench.untraced_wall_s", "s"},
	{"bench.trace_overhead", "ratio"},
	{"bench.fail_frac", "ratio"},
}

// Pass scheduling: at least minPasses passes run so that a median exists;
// no pass starts once it would end past the budget or past maxRun.
const (
	minPasses = 3
	maxRun    = 150 * time.Second
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed of the simulated inputs")
	seconds := flag.Int("seconds", 30, "host-time budget of the measurement, in seconds")
	traced := flag.Int("trace", 0, "0 measures end-to-end metrics untraced; 1 prints the traced per-layer ledger")
	spans := flag.String("spans", "", "file the traced spans are written to (default .bench_build/spcdbench/spans-<workload>-<seed>.csv.gz)")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "spcdbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	spec, err := specFor(*name, workloads.ClassSmall)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spcdbench:", err)
		os.Exit(2)
	}
	r, err := newRunner(spec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spcdbench:", err)
		os.Exit(1)
	}
	var res result
	if *traced == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spcdbench", fmt.Sprintf("spans-%s-%d.csv.gz", *name, *seed))
		}
		res, err = runLedger(os.Stdout, r, path)
	} else {
		res = runMeasure(os.Stdout, r, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spcdbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spcdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupReps is how many times each simulation's set-up is timed after
// every pass.
const setupReps = 2

// runMeasure runs untraced passes until the budget is spent. A pass's
// simulations vary in length, so wall_s is the sum over simulations of each
// one's median host time over the passes; setup_s likewise sums the median
// set-up of each simulation over setupReps set-up runs per pass.
func runMeasure(out io.Writer, r *runner, budget time.Duration) result {
	host := fingerprint()
	start := time.Now()
	var passes []passOutcome
	var calib, alloc []float64
	var setups [][]float64
	for {
		runtime.GC()
		c := calibrate()
		calib = append(calib, c.Seconds())
		p := r.pass(nil)
		passes = append(passes, p)
		alloc = append(alloc, mib(p.alloc))
		if setups == nil {
			setups = make([][]float64, len(p.sims))
		}
		for k := 0; k < setupReps; k++ {
			for i, d := range r.setups() {
				if d >= 0 {
					setups[i] = append(setups[i], d.Seconds())
				}
			}
		}
		fmt.Fprintf(out, "# pass %d: wall_s=%.4f alloc_mib=%.1f sims=%d failed=%d host.calib_s=%.4f\n",
			len(passes), p.wall.Seconds(), mib(p.alloc), len(p.sims), p.failed(), c.Seconds())
		elapsed := time.Since(start)
		if elapsed+p.wall > maxRun || (len(passes) >= minPasses && elapsed+p.wall > budget) {
			break
		}
	}
	// Every pass runs the same seeded inputs, so every simulation must
	// reproduce the first pass's digest exactly.
	for _, p := range passes[1:] {
		requireSameDigests(p, passes[0], "pass")
	}
	res := newResult(passes...)
	var wall, setup float64
	for i := range passes[0].sims {
		var w []float64
		for _, p := range passes {
			w = append(w, p.sims[i].wall.Seconds())
		}
		wall += median(w)
		setup += median(setups[i])
	}
	res.set("wall_s", wall)
	res.set("sim_accesses_per_s", float64(passes[0].accesses())/wall)
	res.set("setup_s", setup)
	res.set("alloc_mib", median(alloc))
	printHost(out, host, median(calib))
	printModel(out, passes[0])
	printFailures(out, res, passes...)
	return res
}

// runLedger runs an untraced reference pass and a traced pass, checks that
// both produced identical simulated outputs, replays each simulation's
// stream layer by layer, and reports the per-layer metrics.
func runLedger(out io.Writer, r *runner, spansPath string) (result, error) {
	host := fingerprint()
	var calib []float64
	untraced := func() passOutcome {
		runtime.GC()
		calib = append(calib, calibrate().Seconds())
		return r.pass(nil)
	}
	// The traced pass sits between two untraced ones, so that its overhead
	// is taken against their mean and a linear drift in host speed cancels.
	ref := untraced()
	runtime.GC()
	rec := newRecorder()
	tp := r.pass(rec)
	ref2 := untraced()
	requireSameDigests(tp, ref, "traced pass")
	requireSameDigests(ref2, ref, "second untraced pass")
	res := newResult(ref, tp, ref2)
	lt := rec.totals()
	untracedWall := (ref.wall + ref2.wall) / 2

	// Layer replay: the difference between consecutive levels is the host
	// cost of the layer the level adds. The levels run in the order
	// generate, vm, cache, cache, vm, generate and each level's time is the
	// sum of its two runs, so a linear drift in host speed cancels.
	var vmHost, cacheHost time.Duration
	var replayed uint64
	for _, s := range tp.sims {
		if s.err != nil || s.affinity == nil {
			continue
		}
		var lv [numLevels]time.Duration
		for _, l := range []int{levelGenerate, levelVM, levelCache, levelCache, levelVM, levelGenerate} {
			runtime.GC()
			lv[l] += replay(s.workload, r.mach, r.seed, s.affinity, l)
		}
		vmHost += (lv[levelVM] - lv[levelGenerate]) / 2
		cacheHost += (lv[levelCache] - lv[levelVM]) / 2
		replayed += s.accesses
	}
	mc, err := r.measureMicro(tp)
	if err != nil {
		return res, err
	}

	// Metrics that do not apply to the workload stay 0: the scenario
	// metrics on an NPB workload, the wrapped layers on serve-churn.
	for _, d := range perLayer {
		res.set(d.name, 0)
	}
	for _, s := range tp.sims {
		m, c := s.metrics, s.counts
		res.add("vm.tlb_misses", m.VM.TLBMisses)
		res.add("vm.faults_first_touch", m.VM.FirstTouchFaults)
		res.add("vm.faults_induced", m.VM.InducedFaults)
		res.add("vm.present_cleared", m.VM.PresentCleared)
		res.add("vm.page_migrations", m.VM.PageMigrations)
		res.add("cache.l1_misses", m.Cache.L1Misses)
		res.add("cache.l2_misses", m.Cache.L2Misses)
		res.add("cache.l3_misses", m.Cache.L3Misses)
		res.add("cache.c2c_same", m.Cache.C2CSameSocket)
		res.add("cache.c2c_cross", m.Cache.C2CCrossSocket)
		res.add("cache.invalidations", m.Cache.Invalidations)
		res.add("cache.dram_remote", m.Cache.DRAMRemote)
		res.add("policy.ticks", s.ticks)
		res.add("policy.remaps", s.remaps)
		res.add("policy.migrated_threads", uint64(m.MigratedThreads))
		res.add("core.faults_seen", c.FaultsSeen)
		res.add("core.comm_events", c.CommEvents)
		res.add("core.temporal_dropped", c.TemporalDropped)
		res.add("core.sampler_wakeups", c.SamplerWakeups)
		res.add("core.pages_cleared", c.PagesCleared)
		res.add("mapping.filter_evaluations", c.FilterEvaluations)
		res.add("mapping.filter_triggers", c.FilterTriggers)
		res.add("mapping.computations", c.Computations)
		if rep := s.report; rep != nil {
			res.add("scenario.intervals", uint64(rep.Intervals))
			res.add("scenario.governor_deferrals", uint64(rep.GovernorDeferrals))
			res.add("scenario.migrations", uint64(rep.Migrations))
			res.set("scenario."+rep.Policy+".c2c_cross", float64(rep.C2CCrossSocket))
			res.set("scenario."+rep.Policy+".mean_p99_slowdown", rep.MeanP99())
		}
	}

	nextS := (lt.self[spanNext] + lt.self[spanNextInit]).Seconds()
	generated := lt.items[spanNext] + lt.items[spanNextInit]
	rest := lt.self[spanRun] + lt.self[spanSetup]
	tracedWall := lt.total[spanRun] + lt.total[spanScenario]
	res.set("workloads.next_s", nextS)
	res.set("workloads.ns_per_access", ratio(nextS*1e9, float64(generated)))
	res.set("workloads.next_calls", float64(lt.calls[spanNext]+lt.calls[spanNextInit]))
	res.set("vm.ns_per_access", ratio(float64(vmHost.Nanoseconds()), float64(replayed)))
	res.set("vm.host_s", vmHost.Seconds())
	res.set("vm.new_s", mc.vmNew.Seconds())
	res.set("cache.ns_per_access", ratio(float64(cacheHost.Nanoseconds()), float64(replayed)))
	res.set("cache.host_s", cacheHost.Seconds())
	res.set("cache.new_s", mc.cacheNew.Seconds())
	res.set("policy.init_s", lt.self[spanInit].Seconds())
	res.set("policy.tick_s", lt.self[spanTick].Seconds())
	res.set("core.new_s", mc.coreNew.Seconds())
	res.set("mapping.trigger_ratio", ratio(res.Metrics["mapping.filter_triggers"].Value, res.Metrics["mapping.filter_evaluations"].Value))
	res.set("mapping.compute_s", mc.mappingCompute.Seconds())
	res.set("trace.matrix_s", mc.traceMatrix.Seconds())
	res.set("engine.runs", float64(lt.calls[spanRun]))
	res.set("engine.rest_s", rest.Seconds())
	res.set("engine.sched_s", (rest - vmHost - cacheHost).Seconds())
	res.set("host.calib_s", median(calib))
	res.set("bench.traced_wall_s", tracedWall.Seconds())
	res.set("bench.untraced_wall_s", untracedWall.Seconds())
	res.set("bench.trace_overhead", ratio(tp.wall.Seconds(), untracedWall.Seconds())-1)
	res.set("bench.fail_frac", ratio(float64(res.Failed), float64(res.Attempted)))

	printHost(out, host, median(calib))
	if len(r.spec.sims) > 0 {
		fmt.Fprintf(out, "# ledger (host s, traced): workloads %.4f + policy %.4f + vm %.4f + cache %.4f + scheduling/replay gap %.4f = %.4f (engine.run spans %.4f; trace overhead %+.1f%%)\n",
			nextS, (lt.self[spanInit] + lt.self[spanTick]).Seconds(), vmHost.Seconds(), cacheHost.Seconds(),
			(rest - vmHost - cacheHost).Seconds(),
			nextS+(lt.self[spanInit]+lt.self[spanTick]+rest).Seconds(), tracedWall.Seconds(),
			100*(ratio(tp.wall.Seconds(), untracedWall.Seconds())-1))
	}
	printModel(out, ref)
	printFailures(out, res, ref, tp, ref2)
	if err := rec.write(spansPath); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "# spans: %d written to %s\n", len(rec.spans), spansPath)
	return res, nil
}

// requireSameDigests marks every simulation of p whose simulated outputs
// differ from the same simulation in ref as failed.
func requireSameDigests(p, ref passOutcome, what string) {
	for i := range p.sims {
		s := &p.sims[i]
		if s.err == nil && ref.sims[i].err == nil && s.digest != ref.sims[i].digest {
			s.err = fmt.Errorf("%s: %s digest %s differs from the reference %s", s.name, what, s.digest, ref.sims[i].digest)
		}
	}
}

func newResult(passes ...passOutcome) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, p := range passes {
		res.Attempted += len(p.sims)
		res.Failed += p.failed()
	}
	res.Correct = res.Failed == 0
	return res
}

// set records a metric under its declared unit.
func (res *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("spcdbench: undeclared metric " + name)
}

// add accumulates a count into a metric already set.
func (res *result) add(name string, v uint64) {
	m := res.Metrics[name]
	m.Value += float64(v)
	res.Metrics[name] = m
}

func printHost(out io.Writer, h hostInfo, calib float64) {
	fmt.Fprintf(out, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s host.calib_s=%.4f\n",
		h.cpu, h.nproc, h.gomaxprocs, h.goVersion, h.commit, calib)
}

// paperDelta is the paper's Table II execution-time change of SPCD over
// the OS, as quoted in EXPERIMENTS.md.
var paperDelta = map[string]float64{"SP": -16.7, "FT": 2.4, "EP": 4.6}

// printModel prints the simulated policy/os execution-time ratios of each
// kernel beside the paper's reference. They are simulated, so they repeat
// exactly for a seed and gate nothing.
func printModel(out io.Writer, p passOutcome) {
	osCycles := map[string]uint64{}
	for _, s := range p.sims {
		if s.err == nil && strings.HasSuffix(s.name, "/os") {
			osCycles[s.kernel] = s.metrics.ExecCycles
		}
	}
	for _, s := range p.sims {
		base, ok := osCycles[s.kernel]
		if s.err != nil || !ok || base == 0 || strings.HasSuffix(s.name, "/os") {
			continue
		}
		pol := strings.TrimPrefix(s.name, s.kernel+"/")
		line := fmt.Sprintf("# model (simulated, not gated): %s %s/os exec time = %.4f", s.kernel, pol, float64(s.metrics.ExecCycles)/float64(base))
		if d, ok := paperDelta[s.kernel]; ok && pol == "spcd" {
			line += fmt.Sprintf(" (paper Table II: %+.1f%% = %.3f)", d, 1+d/100)
		}
		fmt.Fprintln(out, line)
	}
}

func printFailures(out io.Writer, res result, passes ...passOutcome) {
	for _, p := range passes {
		for _, s := range p.sims {
			if s.err != nil {
				fmt.Fprintln(out, "# FAIL", s.err)
			}
		}
	}
	fmt.Fprintf(out, "# fail_frac=%g (%d of %d simulations failed)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
