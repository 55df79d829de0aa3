package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"spcd/internal/buildinfo"
	"spcd/internal/cache"
	"spcd/internal/commmatrix"
	"spcd/internal/core"
	"spcd/internal/mapping"
	"spcd/internal/policy"
	"spcd/internal/scenario"
	"spcd/internal/topology"
	"spcd/internal/trace"
	"spcd/internal/vm"
	"spcd/internal/workloads"
)

// microReps is how many times each constructor or mapping call is timed;
// the median is reported.
const microReps = 9

// medianTime runs f k times and returns the median duration.
func medianTime(k int, f func()) time.Duration {
	ds := make([]time.Duration, k)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[k/2]
}

// microSink keeps timed results alive so the calls are not optimised away.
var microSink []any

// micro holds the host-time micro-measures of the layers whose calls the
// benchmark cannot wrap (they are made inside engine.Run or scenario.Run).
type micro struct {
	vmNew, cacheNew, coreNew time.Duration // one call each
	mappingCompute           time.Duration // summed over the workload's matrices
	traceMatrix              time.Duration // summed over the workload's kernels
}

// shapes returns the workloads whose shapes the micro-measures use: the
// NPB kernels of the workload, or each distinct tenant kernel of the
// serving scenario at the tenant's thread count.
func (r *runner) shapes() ([]workloads.Workload, error) {
	type shape struct {
		kernel  string
		threads int
	}
	var list []shape
	seen := map[shape]bool{}
	add := func(s shape) {
		if !seen[s] {
			seen[s] = true
			list = append(list, s)
		}
	}
	for _, s := range r.spec.sims {
		add(shape{s.kernel, r.spec.threads})
	}
	if r.spec.tenants > 0 {
		for _, t := range scenario.DefaultSpec(r.spec.tenants, r.spec.class, r.seed).Tenants {
			for _, ph := range t.Phases {
				add(shape{ph.Kernel, t.Threads})
			}
		}
	}
	ws := make([]workloads.Workload, len(list))
	for i, s := range list {
		w, err := workloads.NewNPB(s.kernel, s.threads, r.spec.class)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// measureMicro times the constructors once per shape of the workload's
// first kernel, mapping.Compute on every detected matrix of the pass (or,
// for the scenario, on each tenant kernel's trace matrix), and
// trace.CommunicationMatrix once per kernel.
func (r *runner) measureMicro(p passOutcome) (micro, error) {
	var mc micro
	ws, err := r.shapes()
	if err != nil {
		return mc, err
	}
	mach := r.mach
	mc.vmNew = medianTime(microReps, func() { microSink = append(microSink[:0], vm.NewAddressSpace(mach)) })
	mc.cacheNew = medianTime(microReps, func() { microSink = append(microSink[:0], cache.New(mach)) })
	cfg := policy.TunedSPCDConfig(ws[0], mach)
	var detErr error
	mc.coreNew = medianTime(microReps, func() {
		d, err := core.NewDetector(cfg)
		if err != nil {
			detErr = err
		}
		microSink = append(microSink[:0], d)
	})
	if detErr != nil {
		return mc, detErr
	}

	var matrices []*commmatrix.Matrix
	for _, s := range p.sims {
		if s.metrics.CommMatrix != nil {
			matrices = append(matrices, s.metrics.CommMatrix)
		}
	}
	for _, w := range ws {
		start := time.Now()
		m := trace.CommunicationMatrix(w, r.seed, mach.PageSize)
		mc.traceMatrix += time.Since(start)
		if r.spec.tenants > 0 {
			matrices = append(matrices, m)
		}
	}
	for _, m := range matrices {
		d, err := timeCompute(m, mach)
		if err != nil {
			return mc, err
		}
		mc.mappingCompute += d
	}
	microSink = microSink[:0]
	return mc, nil
}

func timeCompute(m *commmatrix.Matrix, mach *topology.Machine) (time.Duration, error) {
	var cerr error
	d := medianTime(microReps, func() {
		aff, err := mapping.Compute(m, mach, nil)
		if err != nil {
			cerr = err
		}
		microSink = append(microSink[:0], aff)
	})
	return d, cerr
}

// calibTable is the calibration loop's working set: one random cycle
// through 32 MiB, larger than the host's last-level cache, so the loop is
// bound by memory latency as the simulator's cache arrays are. It is built
// once, from a fixed seed.
var calibTable = func() []uint32 {
	const n = 1 << 23
	t := make([]uint32, n)
	for i := range t {
		t[i] = uint32(i)
	}
	// Sattolo's algorithm turns the identity into a single n-cycle.
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		t[i], t[j] = t[j], t[i]
	}
	return t
}()

// calibrate times a fixed pure-Go loop that uses no repository code: a
// dependent walk of calibTable plus integer arithmetic. A change in host
// speed then shows apart from a change in the code.
func calibrate() time.Duration {
	start := time.Now()
	i := uint32(0)
	x := uint64(88172645463325252)
	for k := 0; k < 1<<20; k++ {
		i = calibTable[i]
		for j := 0; j < 16; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	calibSink ^= x + uint64(i)
	return time.Since(start)
}

var calibSink uint64

// hostInfo fingerprints the host and build a result was measured on.
type hostInfo struct {
	cpu        string
	nproc      int
	gomaxprocs int
	goVersion  string
	commit     string
}

func fingerprint() hostInfo {
	return hostInfo{
		cpu:        cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     buildinfo.Describe(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; it returns
// "unknown" where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
