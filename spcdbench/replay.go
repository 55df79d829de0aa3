package main

import (
	"time"

	"spcd/internal/cache"
	"spcd/internal/topology"
	"spcd/internal/vm"
	"spcd/internal/workloads"
)

// Replay levels. Each level replays the same seeded stream and adds one
// layer, so the difference between two levels is that layer's host cost.
const (
	levelGenerate = iota // workloads.Run.Next only
	levelVM              // + vm translation
	levelCache           // + cache hierarchy
	numLevels
)

// replayBatch matches the engine's default scheduling slice, so generation
// is called with the same batch size as in a real run.
const replayBatch = 48

// replayer drives one stream through the layers the engine calls, at a
// fixed placement, without the engine's scheduler or any policy.
type replayer struct {
	level     int
	aff       []int
	as        *vm.AddressSpace
	caches    *cache.Hierarchy
	pageShift uint
	pageMask  uint64
	clock     uint64
	sink      uint64
}

// replay runs w's stream for seed at placement aff through the given level
// and returns the host time spent, excluding the constructors (measured on
// their own as vm.new_s and cache.new_s).
func replay(w workloads.Workload, mach *topology.Machine, seed int64, aff []int, level int) time.Duration {
	as := vm.NewAddressSpace(mach)
	caches := cache.New(mach)
	as.SetSharerSource(caches)
	r := &replayer{level: level, aff: aff, as: as, caches: caches,
		pageShift: as.PageShift(), pageMask: uint64(mach.PageSize - 1)}
	n := w.NumThreads()

	start := time.Now()
	run := w.NewRun(seed)
	if init, ok := run.(workloads.Initializer); ok {
		ibuf := make([]workloads.InitAccess, replayBatch)
		for {
			k := init.NextInit(ibuf)
			if k == 0 {
				break
			}
			for _, a := range ibuf[:k] {
				r.touch(a.Thread%n, a.Access)
			}
		}
	}
	buf := make([]workloads.Access, replayBatch)
	active := make([]int, n)
	for t := range active {
		active[t] = t
	}
	for len(active) > 0 {
		live := active[:0]
		for _, t := range active {
			k := run.Next(t, buf)
			if k == 0 {
				continue
			}
			live = append(live, t)
			for _, a := range buf[:k] {
				r.touch(t, a)
			}
		}
		active = live
	}
	d := time.Since(start)
	replaySink ^= r.sink ^ r.clock
	return d
}

// replaySink keeps the generate-only level from being optimised away.
var replaySink uint64

// touch performs one access through the replay's layers, with the same
// fused fast paths and fallbacks as the engine's access loop.
func (r *replayer) touch(t int, a workloads.Access) {
	if r.level == levelGenerate {
		r.sink += a.Addr
		return
	}
	ctx := r.aff[t]
	frame, node, hit := r.as.AccessFast(ctx, a.Addr)
	if !hit {
		tr := r.as.Access(t, ctx, a.Addr, a.Write, r.clock)
		frame, node = tr.Frame, tr.Node
		r.clock += uint64(tr.Cycles)
	}
	if r.level == levelVM {
		r.sink += uint64(frame)
		return
	}
	phys := uint64(frame)<<r.pageShift | (a.Addr & r.pageMask)
	if cyc, ok := r.caches.AccessFast(ctx, phys, a.Write); ok {
		r.clock += uint64(cyc)
	} else {
		r.clock += uint64(r.caches.Access(ctx, phys, a.Write, node).Cycles)
	}
}
