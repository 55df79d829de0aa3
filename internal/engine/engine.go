// Package engine executes a parallel workload on the simulated machine: it
// drives each thread's access stream through the MMU (internal/vm) and the
// coherent cache hierarchy (internal/cache), runs the active mapping policy
// (which may observe page faults and migrate threads), and collects the
// metrics the paper's evaluation reports (execution time, MPKI,
// cache-to-cache transactions, energy, overheads).
//
// The execution model is virtual-time round-robin: every thread owns a
// cycle clock advanced by the latency of its own accesses, and the engine
// always advances the thread whose clock is lowest (a min-heap). This keeps
// thread clocks tightly interleaved — like the barrier-synchronized OpenMP
// kernels being modeled — while letting badly-placed threads fall behind
// and finish later, which is exactly how placement quality becomes
// execution time.
package engine

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"spcd/internal/cache"
	"spcd/internal/commmatrix"
	"spcd/internal/energy"
	"spcd/internal/faultinject"
	"spcd/internal/obs"
	"spcd/internal/runtimeobs"
	"spcd/internal/topology"
	"spcd/internal/vm"
	"spcd/internal/workloads"
)

// Env gives a policy access to the simulation objects it may hook into.
type Env struct {
	Machine    *topology.Machine
	AS         *vm.AddressSpace
	Caches     *cache.Hierarchy
	Workload   workloads.Workload
	Seed       int64
	NumThreads int
	// Injector is the run's fault injector, nil on fault-free runs. Policies
	// consult it for their own degradation sites (sampler saturation, remap
	// delays); its methods are nil-safe.
	Injector *faultinject.Injector
}

// Overheads is the modeled cost a policy imposed on the run, split the way
// Figure 16 reports it.
type Overheads struct {
	DetectionCycles uint64 // fault-handler work + sampler kernel thread
	MappingCycles   uint64 // communication filter + mapping algorithm
}

// Policy decides thread placement. One Policy instance drives one run.
type Policy interface {
	// Name identifies the policy in reports ("os", "random", "oracle",
	// "spcd").
	Name() string
	// Init is called once before the run with the simulation environment.
	Init(env *Env) error
	// InitialAffinity returns the starting thread -> context placement.
	InitialAffinity() []int
	// Tick is called periodically with the current simulated time. A
	// non-nil return migrates threads to the returned affinity.
	Tick(now uint64) []int
	// Overheads returns the modeled cost accounting for the run so far.
	Overheads() Overheads
	// FinalMatrix returns the communication matrix the policy detected,
	// or nil if it does not detect communication.
	FinalMatrix() *commmatrix.Matrix
}

// Config parameterizes one simulation run.
type Config struct {
	Machine  *topology.Machine
	Workload workloads.Workload
	Policy   Policy
	Seed     int64

	// BatchAccesses is how many accesses a thread retires per scheduling
	// slice; smaller values interleave threads more finely.
	BatchAccesses int
	// TickIntervalCycles is how often the policy's Tick runs.
	TickIntervalCycles uint64
	// MigrationCostCycles is charged to every migrated thread (kernel
	// work, context transfer); cache refill costs emerge naturally.
	MigrationCostCycles uint64
	// EnergyParams drives the energy model; zero value selects defaults.
	EnergyParams *energy.Params
	// AllocPolicy selects the NUMA page-homing policy (numactl-style);
	// the zero value is first-touch, the paper's setting.
	AllocPolicy vm.AllocPolicy
	// Probe, when non-nil, records a virtual-time metrics time series and
	// event trace for this run (see internal/obs). The probe must be fresh:
	// one Probe observes exactly one run. nil disables observability; the
	// disabled path costs one sentinel comparison per scheduling slice and
	// allocates nothing.
	Probe *obs.Probe
	// Injector, when non-nil, arms deterministic fault injection for this
	// run (see internal/faultinject): lost/duplicated fault notifications
	// and failing page migrations in the MMU, degraded detection in the
	// policy, and per-thread stall bursts in the scheduling loop. One
	// injector drives exactly one run. nil (the default) is a strict no-op:
	// the hot loop pays one pointer comparison per slice and the simulated
	// stream is byte-identical to a run without injection support.
	Injector *faultinject.Injector
	// Runtime, when non-nil, records host wall-clock spans for this run
	// (see internal/runtimeobs): where the *host* spends time, as opposed
	// to Probe's virtual-time view of the simulated machine. The contract
	// is strictly one-way — the engine emits stamps into it and never reads
	// host time back — so attaching a runtime proc cannot change results
	// (the runtimeobs-isolation lint rule enforces this). nil disables it;
	// the disabled path is nil-receiver no-ops outside the access loop.
	Runtime *runtimeobs.Proc
}

// normalize fills in defaults and validates.
func (c *Config) normalize() error {
	if c.Machine == nil {
		return errors.New("engine: Machine is required")
	}
	if c.Workload == nil {
		return errors.New("engine: Workload is required")
	}
	if c.Policy == nil {
		return errors.New("engine: Policy is required")
	}
	if c.Workload.NumThreads() > c.Machine.NumContexts() {
		return fmt.Errorf("engine: %d threads exceed %d hardware contexts",
			c.Workload.NumThreads(), c.Machine.NumContexts())
	}
	if c.BatchAccesses <= 0 {
		c.BatchAccesses = 48
	}
	if c.TickIntervalCycles == 0 {
		// Scale the tick to the workload's nominal duration so policy
		// periods (which are themselves scaled, see internal/policy)
		// get enough tick resolution regardless of run length.
		c.TickIntervalCycles = workloads.NominalCycles(c.Workload) / 512
		if c.TickIntervalCycles == 0 {
			c.TickIntervalCycles = 1
		}
	}
	if c.MigrationCostCycles == 0 {
		// Direct kernel cost of moving one thread (~2.5 us). The dominant
		// real cost of a migration — refilling caches on the new core —
		// emerges naturally from the cache simulator.
		c.MigrationCostCycles = 5_000
	}
	if c.EnergyParams == nil {
		p := energy.DefaultParams()
		c.EnergyParams = &p
	}
	return c.EnergyParams.Validate()
}

// Metrics is the outcome of one run: the simulated equivalents of the
// paper's PAPI / VTune / RAPL measurements.
type Metrics struct {
	Policy   string
	Workload string
	Seed     int64

	ExecSeconds  float64
	ExecCycles   uint64
	Instructions uint64

	L2MPKI float64
	L3MPKI float64

	Cache cache.Stats
	VM    vm.Stats

	Energy energy.Breakdown

	// Migrations counts remapping events (Ticks that moved at least one
	// thread); MigratedThreads counts individual thread moves.
	Migrations      int
	MigratedThreads int

	DetectionOverheadPct float64
	MappingOverheadPct   float64

	// CommMatrix is the communication pattern the policy detected (nil
	// for policies without detection).
	CommMatrix *commmatrix.Matrix

	// Shootdown is the translation-coherence cost model's tally; all-zero
	// under topology.ShootdownNone.
	Shootdown vm.ShootdownStats
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%s/%s: %.4fs, L2 %.2f MPKI, L3 %.2f MPKI, c2c %d, proc %.2f J, dram %.3f J, migrations %d",
		m.Workload, m.Policy, m.ExecSeconds, m.L2MPKI, m.L3MPKI,
		m.Cache.C2CTotal(), m.Energy.ProcessorJoules, m.Energy.DRAMJoules, m.Migrations)
}

// threadState is one application thread.
type threadState struct {
	id    int
	clock uint64
	done  bool
}

// clockHeap orders runnable threads by their cycle clock.
type clockHeap []*threadState

func (h clockHeap) Len() int            { return len(h) }
func (h clockHeap) Less(i, j int) bool  { return h[i].clock < h[j].clock }
func (h clockHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *clockHeap) Push(x interface{}) { *h = append(*h, x.(*threadState)) }
func (h *clockHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run executes one simulation and returns its metrics.
func Run(cfg Config) (Metrics, error) {
	if err := cfg.normalize(); err != nil {
		return Metrics{}, err
	}
	// Host-time spans: the sequential engine records run-level phases only
	// (init / simulate / finalize), keeping the golden-pinned access loop
	// untouched. All stamps are taken outside the loop.
	rt := cfg.Runtime
	rtLane := rt.Lane("run")
	tStart := rt.Now()
	mach := cfg.Machine
	n := cfg.Workload.NumThreads()

	as := vm.NewAddressSpace(mach)
	as.SetAllocPolicy(cfg.AllocPolicy)
	caches := cache.New(mach)
	run := cfg.Workload.NewRun(cfg.Seed)
	inj := cfg.Injector
	as.SetInjector(inj)
	// The cache directory supplies the shootdown sharer sets; under
	// ShootdownNone the MMU never consults it.
	as.SetSharerSource(caches)

	// Observability wiring happens before Policy.Init so a policy that
	// implements obs.Observer can register its own metrics and emit events
	// from the very first tick. Everything here is off the access path: the
	// registry reads subsystem counters through closures at snapshot time.
	probe := cfg.Probe
	if probe != nil {
		probe.SetDefaultClockHz(mach.ClockHz)
		as.RegisterObs(probe)
		caches.RegisterObs(probe)
		inj.RegisterObs(probe)
		if o, ok := cfg.Policy.(obs.Observer); ok {
			o.SetProbe(probe)
		}
	}

	env := &Env{Machine: mach, AS: as, Caches: caches, Workload: cfg.Workload,
		Seed: cfg.Seed, NumThreads: n, Injector: inj}
	if err := cfg.Policy.Init(env); err != nil {
		return Metrics{}, err
	}
	affinity := append([]int(nil), cfg.Policy.InitialAffinity()...)
	// affScratch is reused by every affinity validation (one per migration
	// tick); allocating a map there showed up in migration-heavy profiles.
	affScratch := make([]bool, mach.NumContexts())
	if err := checkAffinity(affinity, n, mach.NumContexts(), affScratch); err != nil {
		return Metrics{}, err
	}

	threads := make([]*threadState, n)
	h := make(clockHeap, 0, n)
	for t := 0; t < n; t++ {
		threads[t] = &threadState{id: t}
		h = append(h, threads[t])
	}
	heap.Init(&h)

	buf := make([]workloads.Access, cfg.BatchAccesses)
	compute := uint64(cfg.Workload.ComputeCyclesPerAccess())
	var instructions uint64
	var execCycles uint64
	migrations, movedThreads := 0, 0
	nextTick := cfg.TickIntervalCycles
	// Reusable per-core buffer for draining shootdown remote stalls.
	var sdStalls []uint64

	// nextSample is the next registry-snapshot boundary; the MaxUint64
	// sentinel makes the disabled path a single always-false comparison in
	// the scheduling loop (no pointer chase, no branch on probe).
	nextSample := uint64(math.MaxUint64)
	var sampleInterval uint64
	var movedHist *obs.Histogram
	if probe != nil {
		reg := probe.Registry()
		reg.CounterFunc("engine.instructions", func() uint64 { return instructions })
		reg.CounterFunc("engine.migrations", func() uint64 { return uint64(migrations) })
		reg.CounterFunc("engine.migrated_threads", func() uint64 { return uint64(movedThreads) })
		movedHist = reg.Histogram("engine.moved_per_remap", []float64{1, 2, 4, 8, 16})
		sampleInterval = probe.SampleIntervalCycles()
		if sampleInterval == 0 {
			// ~256 rows per run regardless of workload class.
			sampleInterval = workloads.NominalCycles(cfg.Workload) / 256
			if sampleInterval == 0 {
				sampleInterval = 1
			}
		}
		nextSample = sampleInterval
		probe.Snapshot(0)
	}

	// Serial initialization phase: the master thread (thread 0) touches
	// the data set, homing pages by first touch, before the parallel
	// threads start (implicit barrier).
	pageShift := as.PageShift()
	pageMask := uint64(mach.PageSize - 1)
	if init, ok := run.(workloads.Initializer); ok {
		clock := uint64(0)
		ibuf := make([]workloads.InitAccess, cfg.BatchAccesses)
		for {
			k := init.NextInit(ibuf)
			if k == 0 {
				break
			}
			for _, a := range ibuf[:k] {
				ctx := affinity[a.Thread%n]
				// Fused fast path; see the main loop for the contract.
				frame, node, hit := as.AccessFast(ctx, a.Addr)
				if !hit {
					tr := as.Access(a.Thread%n, ctx, a.Addr, a.Write, clock)
					frame, node = tr.Frame, tr.Node
					clock += uint64(tr.Cycles)
				}
				phys := uint64(frame)<<pageShift | (a.Addr & pageMask)
				if cyc, ok := caches.AccessFast(ctx, phys, a.Write); ok {
					clock += compute + uint64(cyc)
				} else {
					res := caches.Access(ctx, phys, a.Write, node)
					clock += compute + uint64(res.Cycles)
				}
			}
			instructions += uint64(k) * (1 + compute)
		}
		for _, th := range threads {
			th.clock = clock
		}
		if probe != nil {
			probe.Emit(clock, "engine", "init.done", -1, obs.Uint("cycles", clock))
		}
	}
	tSim := rt.Now()
	rtLane.SpanAt(runtimeobs.SpanInit, tStart, tSim, -1)

	for h.Len() > 0 {
		th := h[0]
		now := th.clock
		if now > execCycles {
			execCycles = now
		}

		// Policy tick (sampler wakeups, matrix evaluation, migrations).
		if now >= nextTick {
			clocksMoved := false
			for now >= nextTick {
				if newAff := cfg.Policy.Tick(nextTick); newAff != nil {
					if err := checkAffinity(newAff, n, mach.NumContexts(), affScratch); err != nil {
						return Metrics{}, fmt.Errorf("engine: policy %s: %w", cfg.Policy.Name(), err)
					}
					moved := 0
					for t := 0; t < n; t++ {
						if newAff[t] != affinity[t] {
							moved++
							threads[t].clock += cfg.MigrationCostCycles
							if probe != nil {
								probe.Emit(nextTick, "engine", "migrate", t,
									obs.Uint("from_ctx", uint64(affinity[t])),
									obs.Uint("to_ctx", uint64(newAff[t])))
							}
						}
					}
					if moved > 0 {
						migrations++
						movedThreads += moved
						clocksMoved = true
						if probe != nil {
							probe.Emit(nextTick, "engine", "remap", -1, obs.Uint("moved", uint64(moved)))
							movedHist.Observe(float64(moved))
						}
					}
					copy(affinity, newAff)
				}
				nextTick += cfg.TickIntervalCycles
			}
			// Remote TLB-invalidate stalls from any shootdowns the ticks
			// issued: each affected core's cycles land on the threads placed
			// there, in thread order. All shootdown sources run inside
			// Policy.Tick, so this drain is the only place the charge can
			// appear.
			if stalls, any := as.DrainRemoteStalls(sdStalls); any {
				sdStalls = stalls
				for t := 0; t < n; t++ {
					if threads[t].done {
						continue
					}
					if sc := stalls[mach.CoreOf(affinity[t])]; sc > 0 {
						threads[t].clock += sc
						clocksMoved = true
					}
				}
			} else {
				sdStalls = stalls
			}
			// Re-heapify only when a migration charged cycles: on a quiet
			// tick h is still a valid heap and heap.Init would be a
			// structural no-op (sift-down never swaps on ties), so skipping
			// it cannot change the scheduling order.
			if clocksMoved {
				heap.Init(&h)
				th = h[0]
			}
		}

		// Registry snapshot boundaries (off when nextSample is the sentinel).
		// Boundary-timestamped so same-seed runs sample at identical instants.
		for nextSample <= now {
			probe.Snapshot(nextSample)
			nextSample += sampleInterval
		}

		// Injected thread stall: the thread loses its slice to modeled
		// external load and is rescheduled after the burst. The injector
		// clamps the stall rate below 1, so every thread always eventually
		// retires accesses and the loop terminates under any plan.
		if inj != nil {
			if burst := inj.StallCycles(); burst > 0 {
				if probe != nil {
					probe.Emit(th.clock, "engine", "stall.injected", th.id,
						obs.Uint("cycles", burst))
				}
				th.clock += burst
				heap.Fix(&h, 0)
				continue
			}
		}

		k := run.Next(th.id, buf)
		if k == 0 {
			th.done = true
			probe.Emit(th.clock, "engine", "thread.done", th.id)
			heap.Pop(&h)
			continue
		}
		ctx := affinity[th.id]
		clock := th.clock
		for _, a := range buf[:k] {
			// Fused fast path: a TLB hit followed by an L1 hit — the vast
			// majority of steady-state accesses — is resolved with two
			// array probes and no Translation/AccessResult construction.
			// Either layer falls back to its full path independently, and
			// both fast paths perform exactly the state transitions and
			// counter updates the full paths would, so the simulation
			// stream is byte-identical either way.
			frame, node, hit := as.AccessFast(ctx, a.Addr)
			if !hit {
				tr := as.Access(th.id, ctx, a.Addr, a.Write, clock)
				frame, node = tr.Frame, tr.Node
				clock += uint64(tr.Cycles)
			}
			// Caches are physically indexed: densely allocated frames
			// avoid the set aliasing a sparse virtual layout would cause.
			phys := uint64(frame)<<pageShift | (a.Addr & pageMask)
			if cyc, ok := caches.AccessFast(ctx, phys, a.Write); ok {
				clock += compute + uint64(cyc)
			} else {
				res := caches.Access(ctx, phys, a.Write, node)
				clock += compute + uint64(res.Cycles)
			}
		}
		instructions += uint64(k) * (1 + compute)
		th.clock = clock
		heap.Fix(&h, 0)
	}

	for _, th := range threads {
		if th.clock > execCycles {
			execCycles = th.clock
		}
	}
	if probe != nil {
		probe.Snapshot(execCycles)
	}
	tFin := rt.Now()
	rtLane.SpanAt(runtimeobs.SpanSimulate, tSim, tFin, -1)

	m := Metrics{
		Policy:          cfg.Policy.Name(),
		Workload:        cfg.Workload.Name(),
		Seed:            cfg.Seed,
		ExecCycles:      execCycles,
		ExecSeconds:     mach.CyclesToSeconds(execCycles),
		Instructions:    instructions,
		Cache:           caches.Stats(),
		VM:              as.Stats(),
		Migrations:      migrations,
		MigratedThreads: movedThreads,
		CommMatrix:      cfg.Policy.FinalMatrix(),
		Shootdown:       as.ShootdownStats(),
	}
	if instructions > 0 {
		m.L2MPKI = float64(m.Cache.L2Misses) / float64(instructions) * 1000
		m.L3MPKI = float64(m.Cache.L3Misses) / float64(instructions) * 1000
	}
	m.Energy = energy.Compute(*cfg.EnergyParams, mach, m.ExecSeconds, instructions, m.Cache)

	ov := cfg.Policy.Overheads()
	// Induced page faults stall the application directly; their cost is
	// part of the detection overhead (§V-F), together with the modeled
	// handler and sampler work. Shootdowns split the same way: present-bit
	// clears are sampler activity (detection); remap shootdowns are charged
	// inside the policy's migration accounting (MappingCycles), so only the
	// clear-side initiator stall is added here.
	inducedCycles := m.VM.InducedFaults * uint64(as.Costs().InducedFault)
	totalCPU := float64(execCycles) * float64(n)
	if totalCPU > 0 {
		m.DetectionOverheadPct = 100 * float64(ov.DetectionCycles+inducedCycles+m.Shootdown.ClearInitCycles) / totalCPU
		m.MappingOverheadPct = 100 * float64(ov.MappingCycles) / totalCPU
	}
	tEnd := rt.Now()
	rtLane.SpanAt(runtimeobs.SpanFinalize, tFin, tEnd, -1)
	rtLane.SpanAt(runtimeobs.SpanRun, tStart, tEnd, -1)
	rt.SetMeta("kind", "engine")
	return m, nil
}

// checkAffinity validates a thread->context placement. scratch must have
// length contexts; it is cleared and reused so the per-migration validation
// allocates nothing (callers without a scratch may pass nil to allocate).
func checkAffinity(aff []int, n, contexts int, scratch []bool) error {
	if len(aff) != n {
		return fmt.Errorf("affinity covers %d threads, want %d", len(aff), n)
	}
	if scratch == nil {
		scratch = make([]bool, contexts)
	}
	for i := range scratch {
		scratch[i] = false
	}
	for t, ctx := range aff {
		if ctx < 0 || ctx >= contexts {
			return fmt.Errorf("thread %d mapped to invalid context %d", t, ctx)
		}
		if scratch[ctx] {
			return fmt.Errorf("context %d assigned to two threads", ctx)
		}
		scratch[ctx] = true
	}
	return nil
}
