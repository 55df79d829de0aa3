package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"spcd/internal/commmatrix"
	"spcd/internal/engine"
	"spcd/internal/policy"
	"spcd/internal/scenario"
	"spcd/internal/topology"
	"spcd/internal/workloads"
)

// workloadNames lists the benchmark's workloads; README.md says why each
// was chosen.
var workloadNames = []string{"npb-shared", "npb-private", "serve-churn"}

// simSpec is one NPB simulation of a workload: a kernel under a policy.
type simSpec struct{ kernel, policy string }

// benchSpec is one named workload: a sequence of simulations run on one
// goroutine, either NPB kernels under policies or a serving scenario under
// each of servePolicies.
type benchSpec struct {
	name    string
	class   workloads.Class
	threads int
	sims    []simSpec

	tenants       int
	servePolicies []string

	// newWorkload builds a simulation's workload. Tests substitute a
	// deliberately broken one to prove that the checks catch it.
	newWorkload func(kernel string, threads int, class workloads.Class) (workloads.Workload, error)
}

func specFor(name string, class workloads.Class) (*benchSpec, error) {
	s := &benchSpec{name: name, class: class, threads: 32, newWorkload: newNPB}
	switch name {
	case "npb-shared":
		s.sims = []simSpec{{"SP", "os"}, {"SP", "spcd"}, {"FT", "os"}, {"FT", "spcd"}}
	case "npb-private":
		s.sims = []simSpec{{"EP", "os"}, {"EP", "oracle"}, {"EP", "spcd"}}
	case "serve-churn":
		s.tenants = 8
		s.servePolicies = []string{"spcd", "os"}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return s, nil
}

func newNPB(kernel string, threads int, class workloads.Class) (workloads.Workload, error) {
	w, err := workloads.NewNPB(kernel, threads, class)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// simOutcome is what one simulation produced and what the checks found.
type simOutcome struct {
	name     string
	kernel   string
	err      error  // run error or failed check
	digest   string // hash of every simulated output
	accesses uint64 // simulated accesses retired
	wall     time.Duration

	metrics engine.Metrics
	counts  coreCounts
	report  *scenario.Report

	// Traced passes only: the policy's initial placement (for the layer
	// replay) and its wrapper's call counts.
	affinity []int
	ticks    uint64
	remaps   uint64
	workload workloads.Workload
}

// passOutcome is one pass over all simulations of a workload.
type passOutcome struct {
	wall  time.Duration
	alloc uint64 // bytes allocated during the pass (MemStats.TotalAlloc delta)
	sims  []simOutcome
}

func (p passOutcome) accesses() uint64 {
	var n uint64
	for _, s := range p.sims {
		n += s.accesses
	}
	return n
}

func (p passOutcome) failed() int {
	n := 0
	for _, s := range p.sims {
		if s.err != nil {
			n++
		}
	}
	return n
}

// coreCounts are the SPCD detector, sampler and mapper counters that
// engine.Metrics does not carry.
type coreCounts struct {
	FaultsSeen, CommEvents, TemporalDropped uint64
	SamplerWakeups, PagesCleared            uint64
	FilterEvaluations, FilterTriggers       uint64
	Computations                            uint64
}

func countsOf(p engine.Policy) coreCounts {
	sp, ok := p.(*policy.SPCD)
	if !ok || sp.Detector() == nil {
		return coreCounts{}
	}
	d, s, mp := sp.Detector().Stats(), sp.Sampler().Stats(), sp.Mapper()
	return coreCounts{
		FaultsSeen: d.FaultsSeen, CommEvents: d.CommEvents, TemporalDropped: d.TemporalDropped,
		SamplerWakeups: s.Wakeups, PagesCleared: s.PagesCleared,
		FilterEvaluations: mp.Filter().Evaluations(), FilterTriggers: mp.Filter().Triggers(),
		Computations: mp.Computations(),
	}
}

// runner executes passes of one workload at one seed.
type runner struct {
	spec *benchSpec
	seed int64
	mach *topology.Machine
	// expected is the number of accesses one simulation of each kernel
	// must retire: its serial initialization plus threads x
	// AccessesPerThread, taken from the unwrapped reference workload.
	expected map[string]uint64
}

func newRunner(spec *benchSpec, seed int64) (*runner, error) {
	r := &runner{spec: spec, seed: seed, mach: topology.DefaultXeon(), expected: map[string]uint64{}}
	for _, s := range spec.sims {
		if _, ok := r.expected[s.kernel]; ok {
			continue
		}
		w, err := workloads.NewNPB(s.kernel, spec.threads, spec.class)
		if err != nil {
			return nil, err
		}
		r.expected[s.kernel] = initAccesses(w, seed) + uint64(w.NumThreads())*w.AccessesPerThread()
	}
	return r, nil
}

// initAccesses counts the accesses of a run's serial initialization phase.
func initAccesses(w workloads.Workload, seed int64) uint64 {
	init, ok := w.NewRun(seed).(workloads.Initializer)
	if !ok {
		return 0
	}
	buf := make([]workloads.InitAccess, 1024)
	var n uint64
	for {
		k := init.NextInit(buf)
		if k == 0 {
			return n
		}
		n += uint64(k)
	}
}

// pass runs every simulation of the workload once. rec == nil is the
// untraced pass: engine.Run gets the workload and the policy unwrapped.
func (r *runner) pass(rec *recorder) passOutcome {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	var out passOutcome
	start := time.Now()
	for i, s := range r.spec.sims {
		out.sims = append(out.sims, r.runSim(int32(i), s, rec))
	}
	for i, pol := range r.spec.servePolicies {
		out.sims = append(out.sims, r.runScenario(int32(i), pol, rec))
	}
	out.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	out.alloc = ms.TotalAlloc - before
	for i := range out.sims {
		r.check(&out.sims[i])
	}
	return out
}

// setups times the set-up of every simulation of the workload once. For an
// NPB simulation that is engine.Run from its call to the engine's first
// Run.Next, in a run whose streams all end there; for the scenario it is
// spec construction. The durations are in pass order. A simulation whose
// set-up fails reads -1; its full run in the pass reports the failure.
func (r *runner) setups() []time.Duration {
	var out []time.Duration
	for _, s := range r.spec.sims {
		d, err := r.setupOnly(s)
		if err != nil {
			d = -1
		}
		out = append(out, d)
	}
	for range r.spec.servePolicies {
		// Spec construction takes microseconds, too short to time steadily
		// once; a sample is the median of specReps constructions.
		out = append(out, medianTime(specReps, func() {
			microSink = append(microSink[:0], scenario.DefaultSpec(r.spec.tenants, r.spec.class, r.seed))
		}))
	}
	return out
}

// specReps is how many scenario specs one set-up sample builds.
const specReps = 25

func (r *runner) setupOnly(s simSpec) (time.Duration, error) {
	w, err := r.spec.newWorkload(s.kernel, r.spec.threads, r.spec.class)
	if err != nil {
		return 0, err
	}
	p, err := policy.Tuned(s.policy, w, r.mach)
	if err != nil {
		return 0, err
	}
	st := &simState{setupOnly: true}
	start := time.Now()
	if _, err := engine.Run(engine.Config{Machine: r.mach, Workload: &benchWorkload{Workload: w, st: st}, Policy: p, Seed: r.seed}); err != nil {
		return 0, err
	}
	if st.firstNext.IsZero() {
		return 0, fmt.Errorf("%s/%s: the engine never called Run.Next", s.kernel, s.policy)
	}
	return st.firstNext.Sub(start), nil
}

// simState is shared by the wrappers of one simulation.
type simState struct {
	rec       *recorder
	id        int32
	setupSpan int32
	runMade   bool // the engine's own Run has been created
	firstNext time.Time
	setupOnly bool // end every stream at the engine's first Run.Next
}

func (r *runner) runSim(id int32, s simSpec, rec *recorder) simOutcome {
	out := simOutcome{name: s.kernel + "/" + s.policy, kernel: s.kernel}
	w, err := r.spec.newWorkload(s.kernel, r.spec.threads, r.spec.class)
	if err != nil {
		out.err = err
		return out
	}
	p, err := policy.Tuned(s.policy, w, r.mach)
	if err != nil {
		out.err = err
		return out
	}
	var ew workloads.Workload = w
	var ep engine.Policy = p
	var bp *benchPolicy
	st := &simState{rec: rec, id: id}
	if rec != nil {
		ew = &benchWorkload{Workload: w, st: st}
		bp = &benchPolicy{Policy: p, st: st}
		ep = bp
	}
	start := time.Now()
	var runSpan int32
	if rec != nil {
		runSpan = rec.begin(spanRun, id)
		st.setupSpan = rec.begin(spanSetup, id)
	}
	m, err := engine.Run(engine.Config{Machine: r.mach, Workload: ew, Policy: ep, Seed: r.seed})
	if rec != nil {
		rec.end(runSpan)
	}
	out.wall = time.Since(start)
	out.err = err
	out.metrics = m
	out.counts = countsOf(p)
	out.workload = w
	if compute := uint64(1 + w.ComputeCyclesPerAccess()); m.Instructions%compute == 0 {
		out.accesses = m.Instructions / compute
	}
	if bp != nil {
		out.affinity, out.ticks, out.remaps = bp.affinity, bp.ticks, bp.remaps
	}
	return out
}

func (r *runner) runScenario(id int32, pol string, rec *recorder) simOutcome {
	out := simOutcome{name: "scenario/" + pol}
	start := time.Now()
	var runSpan, specSpan int32
	if rec != nil {
		runSpan = rec.begin(spanScenario, id)
		specSpan = rec.begin(spanSpec, id)
	}
	spec := scenario.DefaultSpec(r.spec.tenants, r.spec.class, r.seed)
	spec.Policy = pol
	if rec != nil {
		rec.end(specSpan)
	}
	rep, err := scenario.Run(spec)
	if rec != nil {
		rec.end(runSpan)
	}
	out.wall = time.Since(start)
	out.err = err
	out.report = rep
	if rep != nil {
		for _, t := range rep.Tenants {
			out.accesses += t.Accesses
		}
	}
	return out
}

// check fills the outcome's digest and records the first failed invariant
// as its error.
func (r *runner) check(s *simOutcome) {
	if s.err != nil {
		return
	}
	if s.report != nil {
		s.digest = digest(s.report.Render())
		if s.report.Truncated {
			s.err = fmt.Errorf("%s: scenario truncated after %d intervals", s.name, s.report.Intervals)
		}
		for _, t := range s.report.Tenants {
			if t.Status != "completed" && t.Status != "departed" {
				s.err = fmt.Errorf("%s: tenant %s ended %s", s.name, t.ID, t.Status)
				break
			}
		}
		return
	}
	m := s.metrics
	m.CommMatrix = nil // hashed by value below; %+v would print its address
	s.digest = digest(fmt.Sprintf("%+v\n%+v\n", m, s.counts) + matrixBits(s.metrics.CommMatrix))
	if want := r.expected[s.kernel]; s.accesses != want {
		s.err = fmt.Errorf("%s: retired %d simulated accesses, want %d (initialization + threads x AccessesPerThread)",
			s.name, s.accesses, want)
	}
}

func matrixBits(m *commmatrix.Matrix) string {
	if m == nil {
		return ""
	}
	n := m.N()
	b := make([]byte, 0, 8*n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.At(i, j)))
		}
	}
	return string(b)
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// benchWorkload wraps a workload so that every Run it creates is wrapped.
type benchWorkload struct {
	workloads.Workload
	st *simState
}

// NewRun wraps the inner run. The engine creates its run before
// Policy.Init, so the first run made is the engine's; later runs (the
// oracle's trace replay) are traced as generation but do not end set-up.
// A run that implements workloads.Initializer stays one: the engine skips
// the serial initialization phase of a run that does not.
func (w *benchWorkload) NewRun(seed int64) workloads.Run {
	inner := w.Workload.NewRun(seed)
	br := &benchRun{inner: inner, st: w.st, engine: !w.st.runMade}
	w.st.runMade = true
	if init, ok := inner.(workloads.Initializer); ok {
		return &benchInitRun{benchRun: br, init: init}
	}
	return br
}

type benchRun struct {
	inner  workloads.Run
	st     *simState
	engine bool
}

func (r *benchRun) Next(t int, buf []workloads.Access) int {
	st := r.st
	if r.engine && st.firstNext.IsZero() {
		st.firstNext = time.Now()
		if st.rec != nil {
			st.rec.end(st.setupSpan)
		}
	}
	if r.engine && st.setupOnly {
		return 0
	}
	if st.rec == nil {
		return r.inner.Next(t, buf)
	}
	idx := st.rec.begin(spanNext, st.id)
	k := r.inner.Next(t, buf)
	st.rec.spans[idx].items = int32(k)
	st.rec.end(idx)
	return k
}

type benchInitRun struct {
	*benchRun
	init workloads.Initializer
}

func (r *benchInitRun) NextInit(buf []workloads.InitAccess) int {
	rec := r.st.rec
	if rec == nil {
		return r.init.NextInit(buf)
	}
	idx := rec.begin(spanNextInit, r.st.id)
	k := r.init.NextInit(buf)
	rec.spans[idx].items = int32(k)
	rec.end(idx)
	return k
}

// benchPolicy times a policy's Init and Tick calls in a traced pass.
type benchPolicy struct {
	engine.Policy
	st       *simState
	affinity []int
	ticks    uint64
	remaps   uint64
}

func (p *benchPolicy) Init(env *engine.Env) error {
	idx := p.st.rec.begin(spanInit, p.st.id)
	err := p.Policy.Init(env)
	p.st.rec.end(idx)
	return err
}

func (p *benchPolicy) InitialAffinity() []int {
	aff := p.Policy.InitialAffinity()
	p.affinity = append([]int(nil), aff...)
	return aff
}

func (p *benchPolicy) Tick(now uint64) []int {
	idx := p.st.rec.begin(spanTick, p.st.id)
	aff := p.Policy.Tick(now)
	p.st.rec.end(idx)
	p.ticks++
	if aff != nil {
		p.remaps++
	}
	return aff
}
