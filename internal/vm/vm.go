// Package vm simulates the virtual-memory subsystem that the SPCD mechanism
// hooks into (paper §III). It provides, per parallel application, a page
// table with present bits, per-hardware-context TLBs, a physical frame
// allocator with a first-touch NUMA policy, and a fault-handler hook chain.
//
// The SPCD detector registers a fault handler exactly like the kernel module
// modifies the Linux page-fault handler: it observes every fault (thread ID,
// address, time) and may clear present bits to induce additional faults.
// Nothing in this package knows about communication detection; it is a pure
// MMU model.
package vm

import (
	"fmt"
	"math/bits"
	"math/rand"

	"spcd/internal/faultinject"
	"spcd/internal/obs"
	"spcd/internal/topology"
)

// FaultType distinguishes why a page fault happened.
type FaultType int

const (
	// FaultFirstTouch is a regular demand-paging fault: the page had never
	// been mapped. The frame is allocated on the faulting context's NUMA
	// node (first-touch policy, as in Linux).
	FaultFirstTouch FaultType = iota
	// FaultInduced is an additional page fault created by clearing the
	// present bit of a resident page (paper §III-A). It is resolved by
	// restoring the bit, a constant-time page-table walk.
	FaultInduced
)

// String names the fault type.
func (t FaultType) String() string {
	if t == FaultFirstTouch {
		return "first-touch"
	}
	return "induced"
}

// Fault describes one page fault delivered to the handler chain.
type Fault struct {
	Thread  int       // application thread that faulted
	Context int       // hardware context the thread was running on
	Page    uint64    // virtual page number
	Addr    uint64    // full faulting virtual address
	Write   bool      // access type
	Type    FaultType // demand paging or induced
	Time    uint64    // simulated time in cycles
}

// Handler observes page faults. Handlers run synchronously inside the
// simulated fault path, mirroring the in-kernel hook.
type Handler func(Fault)

// Costs models the cycle cost of MMU events. The derived execution-time
// overhead of SPCD (Fig. 16) comes from these constants times the event
// counts.
type Costs struct {
	TLBMiss         int // page-table walk on a TLB miss, page present
	FirstTouchFault int // kernel entry + frame allocation + mapping
	InducedFault    int // kernel entry + present-bit restore (fast path)
}

// DefaultCosts are rough x86-64 figures: a hardware walk of a 4-level table,
// and two kernel round-trips of different weights (the induced-fault path is
// the fast restore of Fig. 2, the first-touch path allocates and zeroes).
func DefaultCosts() Costs {
	return Costs{TLBMiss: 40, FirstTouchFault: 800, InducedFault: 1000}
}

// Stats counts MMU activity.
type Stats struct {
	Accesses         uint64 // translations requested
	TLBHits          uint64
	TLBMisses        uint64
	FirstTouchFaults uint64
	InducedFaults    uint64
	PresentCleared   uint64 // present bits cleared (sampler activity)
	Shootdowns       uint64 // TLB entries invalidated by clears/remaps/unmaps
	PageMigrations   uint64 // pages moved between NUMA nodes
}

// TotalFaults returns all faults taken.
func (s Stats) TotalFaults() uint64 { return s.FirstTouchFaults + s.InducedFaults }

// ShootdownStats counts the translation-coherence cost model's activity.
// It is kept separate from Stats so arming a shootdown mode adds counters
// without disturbing the Stats rendering that mode-none goldens pin.
type ShootdownStats struct {
	Events       uint64 // shootdowns charged (clears + remaps + unmaps)
	SharersTotal uint64 // sharer cores summed over all events
	// Initiator stall cycles, split by the operation that triggered the
	// shootdown: present-bit clears belong to detection overhead, remaps to
	// mapping overhead, unmaps to neither (teardown).
	ClearInitCycles uint64
	RemapInitCycles uint64
	UnmapInitCycles uint64
	// RemoteCycles is the total invalidate cost charged to sharer cores;
	// the engine drains it into the affected threads' virtual clocks.
	RemoteCycles uint64
	// DelayCycles is the injected extra initiator stall
	// (faultinject.SiteVMShootdownDelay); already included in the per-kind
	// initiator buckets above.
	DelayCycles uint64
}

// InitCycles returns the total initiator stall across all shootdown kinds.
func (s ShootdownStats) InitCycles() uint64 {
	return s.ClearInitCycles + s.RemapInitCycles + s.UnmapInitCycles
}

// SharerSource reports which cores may privately cache data of the physical
// page at byte address addr (size bytes): the cache hierarchy's directory
// sharer bitset, unioned with TLB residency to form the shootdown target
// set. Implemented by cache.Hierarchy.PageSharerCores.
type SharerSource interface {
	PageSharerCores(addr, size uint64) uint32
}

// shootdownKind distinguishes what invalidated a translation.
type shootdownKind int

const (
	shootClear shootdownKind = iota
	shootRemap
	shootUnmap
)

func (k shootdownKind) String() string {
	switch k {
	case shootClear:
		return "clear"
	case shootRemap:
		return "remap"
	}
	return "unmap"
}

// pte is a page-table entry. mapped distinguishes a never-touched slot of a
// page-table leaf from a mapped page whose present bit was cleared by the
// sampler (the two take different fault paths).
type pte struct {
	frame   int64
	node    int8
	present bool
	mapped  bool
}

// Page-table leaves. Instead of one heap allocation per page (the old
// map[vpn]*pte layout), entries live in 512-slot leaves keyed by the high
// bits of the vpn — one allocation and one map lookup per 512-page range,
// mirroring how a real page table shares a last-level node among neighboring
// pages. Entry pointers are stable (leaves are never reallocated), so TLB
// entries can cache them.
const (
	leafBits = 9
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
)

// pteLeaf is a last-level page-table node covering leafSize consecutive
// virtual pages.
type pteLeaf [leafSize]pte

// tlbSize is the number of direct-mapped entries per context TLB. Real TLBs
// are set-associative; a direct-mapped model keeps the common-case lookup a
// single array access while still producing realistic miss behaviour.
const tlbSize = 256

type tlbEntry struct {
	vpn   uint64
	p     *pte // the translated entry, cached to skip the page-table walk
	valid bool
}

// AllocPolicy selects how newly touched pages are homed on NUMA nodes,
// mirroring the mempolicy modes Linux exposes through numactl.
type AllocPolicy int

const (
	// AllocFirstTouch homes each page on the faulting context's node (the
	// Linux default, and the paper's setting).
	AllocFirstTouch AllocPolicy = iota
	// AllocInterleave distributes pages round-robin across nodes
	// (numactl --interleave), trading locality for bandwidth balance.
	AllocInterleave
	// AllocFixedNode homes every page on node 0 (numactl --membind 0).
	AllocFixedNode
)

// String names the policy.
func (p AllocPolicy) String() string {
	switch p {
	case AllocFirstTouch:
		return "first-touch"
	case AllocInterleave:
		return "interleave"
	case AllocFixedNode:
		return "fixed-node"
	}
	return fmt.Sprintf("AllocPolicy(%d)", int(p))
}

// AddressSpace is the page table and TLB state of one parallel application.
type AddressSpace struct {
	mach      *topology.Machine
	pageShift uint
	costs     Costs
	alloc     AllocPolicy
	nextRR    int // round-robin cursor for AllocInterleave

	pages       map[uint64]*pteLeaf // page-table leaves, keyed by vpn >> leafBits
	mappedPages int                 // pages ever touched (mapped pte slots)
	// resident lists present pages for O(1) uniform sampling by the SPCD
	// sampler thread; residentIdx maps vpn -> index in resident.
	resident    []uint64
	residentIdx map[uint64]int

	tlbs [][]tlbEntry // per hardware context

	handlers []Handler

	nextFrame int64
	nodePages []uint64 // frames allocated per NUMA node
	stats     Stats

	// obsFault records fault-handler cycles when observability is on. The
	// nil histogram is a no-op, and it is only touched on the (rare) fault
	// path — the TLB-hit fast path never sees it.
	obsFault *obs.Histogram

	// inj, when non-nil, perturbs the fault-notification and page-migration
	// paths (see internal/faultinject). Like obsFault it is only consulted
	// off the TLB-hit fast path, so fault-free runs are unchanged.
	inj *faultinject.Injector

	// Translation-coherence cost model (DESIGN.md §15). sdMode/sdCosts are
	// cached from the machine at construction; ShootdownNone keeps every
	// path below bit-for-bit identical to the pre-model behavior.
	sdMode    topology.ShootdownMode
	sdCosts   topology.ShootdownParams
	sd        ShootdownStats
	sharerSrc SharerSource
	// pendingRemote accumulates, per core, the remote TLB-invalidate cycles
	// charged since the engine last drained them into thread clocks.
	pendingRemote []uint64
	pendingAny    bool
	// probe, when non-nil, receives one tlb.shootdown event per charged
	// shootdown. Only set when a shootdown mode is armed.
	probe *obs.Probe
}

// NewAddressSpace creates the MMU state for one application on machine m.
func NewAddressSpace(m *topology.Machine) *AddressSpace {
	shift := uint(0)
	for 1<<shift != m.PageSize {
		shift++
	}
	as := &AddressSpace{
		mach:          m,
		pageShift:     shift,
		costs:         DefaultCosts(),
		pages:         make(map[uint64]*pteLeaf),
		residentIdx:   make(map[uint64]int),
		tlbs:          make([][]tlbEntry, m.NumContexts()),
		nodePages:     make([]uint64, m.NumNodes()),
		sdMode:        m.Shootdown,
		sdCosts:       m.ShootdownCosts,
		pendingRemote: make([]uint64, m.NumCores()),
	}
	for i := range as.tlbs {
		as.tlbs[i] = make([]tlbEntry, tlbSize)
	}
	return as
}

// SetCosts overrides the MMU cost model.
func (as *AddressSpace) SetCosts(c Costs) { as.costs = c }

// SetAllocPolicy selects the NUMA homing policy for pages touched from now
// on; already-homed pages stay where they are (like a mempolicy change).
func (as *AddressSpace) SetAllocPolicy(p AllocPolicy) { as.alloc = p }

// AllocPolicy returns the active homing policy.
func (as *AddressSpace) AllocPolicy() AllocPolicy { return as.alloc }

// homeNode picks the NUMA node for a new page touched from context ctx.
func (as *AddressSpace) homeNode(ctx int) int {
	switch as.alloc {
	case AllocInterleave:
		node := as.nextRR
		as.nextRR = (as.nextRR + 1) % as.mach.NumNodes()
		return node
	case AllocFixedNode:
		return 0
	default:
		return as.mach.NodeOf(ctx)
	}
}

// Costs returns the active cost model.
func (as *AddressSpace) Costs() Costs { return as.costs }

// PageShift returns log2 of the page size.
func (as *AddressSpace) PageShift() uint { return as.pageShift }

// PageOf returns the virtual page number of addr.
func (as *AddressSpace) PageOf(addr uint64) uint64 { return addr >> as.pageShift }

// AddHandler appends h to the fault-handler chain. Handlers run in
// registration order on every fault.
func (as *AddressSpace) AddHandler(h Handler) { as.handlers = append(as.handlers, h) }

// Stats returns a copy of the counters.
func (as *AddressSpace) Stats() Stats { return as.stats }

// RegisterObs wires the MMU into an observability probe: every Stats counter
// becomes a registry column read at snapshot time (the counters themselves
// stay plain integers — zero cost on the access path), plus a TLB hit-rate
// gauge, a resident-page gauge, and a fault-handler-cycles histogram fed
// from the fault path only.
func (as *AddressSpace) RegisterObs(p *obs.Probe) {
	if p == nil {
		return
	}
	reg := p.Registry()
	reg.CounterFunc("vm.accesses", func() uint64 { return as.stats.Accesses })
	reg.CounterFunc("vm.tlb_hits", func() uint64 { return as.stats.TLBHits })
	reg.CounterFunc("vm.tlb_misses", func() uint64 { return as.stats.TLBMisses })
	reg.CounterFunc("vm.first_touch_faults", func() uint64 { return as.stats.FirstTouchFaults })
	reg.CounterFunc("vm.induced_faults", func() uint64 { return as.stats.InducedFaults })
	reg.CounterFunc("vm.present_cleared", func() uint64 { return as.stats.PresentCleared })
	reg.CounterFunc("vm.shootdowns", func() uint64 { return as.stats.Shootdowns })
	reg.CounterFunc("vm.page_migrations", func() uint64 { return as.stats.PageMigrations })
	reg.GaugeFunc("vm.resident_pages", func() float64 { return float64(len(as.resident)) })
	reg.GaugeFunc("vm.tlb_hit_rate", func() float64 {
		if as.stats.Accesses == 0 {
			return 0
		}
		return float64(as.stats.TLBHits) / float64(as.stats.Accesses)
	})
	// Bucket edges bracket the cost model: a bare walk (~40), walk +
	// induced restore or first touch (~840-1040), and pile-ups beyond.
	as.obsFault = reg.Histogram("vm.fault_cycles", []float64{64, 256, 1024, 4096})
	// Shootdown columns and events exist only when a mode is armed, so
	// mode-none CSV artifacts keep their exact column set.
	if as.sdMode != topology.ShootdownNone {
		as.probe = p
		reg.CounterFunc("vm.shootdown.events", func() uint64 { return as.sd.Events })
		reg.CounterFunc("vm.shootdown.sharers", func() uint64 { return as.sd.SharersTotal })
		reg.CounterFunc("vm.shootdown.init_cycles", func() uint64 { return as.sd.InitCycles() })
		reg.CounterFunc("vm.shootdown.remote_cycles", func() uint64 { return as.sd.RemoteCycles })
	}
}

// SetSharerSource wires the cache directory into the shootdown target-set
// computation. Without one (or under ShootdownNone) only TLB residency
// determines the sharer set.
func (as *AddressSpace) SetSharerSource(s SharerSource) { as.sharerSrc = s }

// ShootdownStats returns a copy of the translation-coherence counters.
func (as *AddressSpace) ShootdownStats() ShootdownStats { return as.sd }

// ShootdownMode returns the armed translation-coherence scheme.
func (as *AddressSpace) ShootdownMode() topology.ShootdownMode { return as.sdMode }

// ResidentPages returns the number of mapped, present pages.
func (as *AddressSpace) ResidentPages() int { return len(as.resident) }

// NodePages returns how many pages are homed on each NUMA node, which the
// engine uses to attribute DRAM accesses and energy.
func (as *AddressSpace) NodePages() []uint64 {
	return append([]uint64(nil), as.nodePages...)
}

// Translation is the result of a memory access through the MMU.
type Translation struct {
	Frame   int64 // physical frame
	Node    int   // NUMA node homing the frame
	Cycles  int   // MMU-induced extra cycles (TLB miss, faults)
	Faulted bool  // a page fault was taken
}

// lookupPTE returns the entry of page vpn, or nil if the page was never
// touched. The returned pointer is stable for the life of the AddressSpace.
func (as *AddressSpace) lookupPTE(vpn uint64) *pte {
	leaf := as.pages[vpn>>leafBits]
	if leaf == nil {
		return nil
	}
	p := &leaf[vpn&leafMask]
	if !p.mapped {
		return nil
	}
	return p
}

// mapPage installs a fresh entry for vpn (first touch), allocating the leaf
// if this is the first page of its 512-page range.
func (as *AddressSpace) mapPage(vpn uint64, node int) *pte {
	leaf := as.pages[vpn>>leafBits]
	if leaf == nil {
		leaf = new(pteLeaf)
		as.pages[vpn>>leafBits] = leaf
	}
	p := &leaf[vpn&leafMask]
	*p = pte{frame: as.nextFrame, node: int8(node), present: true, mapped: true}
	as.nextFrame++
	as.mappedPages++
	return p
}

// AccessFast is the allocation-free fast path of Access: it succeeds only
// on a TLB hit to a present page — the common case the engine's fused hot
// loop short-circuits — and then updates exactly the counters Access would
// (Accesses, TLBHits). On a miss it touches nothing and returns ok=false;
// the caller falls back to Access, which re-runs the lookup and takes the
// full walk/fault path. No Translation struct is built and the page table
// is never consulted: the TLB entry carries its pte.
func (as *AddressSpace) AccessFast(ctx int, addr uint64) (frame int64, node int, ok bool) {
	vpn := addr >> as.pageShift
	t := &as.tlbs[ctx][vpn%tlbSize]
	if t.valid && t.vpn == vpn && t.p.present {
		as.stats.Accesses++
		as.stats.TLBHits++
		return t.p.frame, int(t.p.node), true
	}
	return 0, 0, false
}

// Access translates a memory access by thread (running on context ctx) to
// virtual address addr at simulated time now. It performs TLB lookup, page
// walk, demand paging with first-touch placement, and delivers faults to
// the handler chain. The returned cycles are the MMU overhead only; cache
// and DRAM latency are the cache simulator's business.
func (as *AddressSpace) Access(thread, ctx int, addr uint64, write bool, now uint64) Translation {
	as.stats.Accesses++
	vpn := addr >> as.pageShift
	t := &as.tlbs[ctx][vpn%tlbSize]
	if t.valid && t.vpn == vpn && t.p.present {
		as.stats.TLBHits++
		return Translation{Frame: t.p.frame, Node: int(t.p.node)}
	}
	as.stats.TLBMisses++
	cycles := as.costs.TLBMiss
	faulted := false
	entry := as.lookupPTE(vpn)
	if entry == nil {
		// Demand-paging fault: allocate per the active NUMA policy.
		node := as.homeNode(ctx)
		entry = as.mapPage(vpn, node)
		as.nodePages[node]++
		as.addResident(vpn)
		as.stats.FirstTouchFaults++
		cycles += as.costs.FirstTouchFault
		faulted = true
		as.obsFault.Observe(float64(cycles))
		as.fireFault(Fault{Thread: thread, Context: ctx, Page: vpn, Addr: addr,
			Write: write, Type: FaultFirstTouch, Time: now})
	} else if !entry.present {
		// Induced fault: restore the present bit and return to the
		// application (paper Fig. 2, gray boxes).
		entry.present = true
		as.addResident(vpn)
		as.stats.InducedFaults++
		cycles += as.costs.InducedFault
		faulted = true
		as.obsFault.Observe(float64(cycles))
		as.fireFault(Fault{Thread: thread, Context: ctx, Page: vpn, Addr: addr,
			Write: write, Type: FaultInduced, Time: now})
	}
	t.vpn = vpn
	t.p = entry
	t.valid = true
	return Translation{Frame: entry.frame, Node: int(entry.node), Cycles: cycles, Faulted: faulted}
}

// SetInjector arms fault injection on the notification and migration paths.
// A nil injector (the default) leaves both paths exactly as they were.
func (as *AddressSpace) SetInjector(in *faultinject.Injector) { as.inj = in }

func (as *AddressSpace) fireFault(f Fault) {
	if as.inj != nil {
		// The fault itself (allocation, present-bit restore, cycle cost)
		// already happened; only the *notification* to the handler chain is
		// perturbed, exactly like a bypassed or retried kernel hook.
		if as.inj.Hit(faultinject.SiteVMFaultDrop) {
			return
		}
		if as.inj.Hit(faultinject.SiteVMFaultDup) {
			for _, h := range as.handlers {
				h(f)
			}
		}
	}
	for _, h := range as.handlers {
		h(f)
	}
}

func (as *AddressSpace) addResident(vpn uint64) {
	if _, ok := as.residentIdx[vpn]; ok {
		return
	}
	as.residentIdx[vpn] = len(as.resident)
	as.resident = append(as.resident, vpn)
}

func (as *AddressSpace) removeResident(vpn uint64) {
	idx, ok := as.residentIdx[vpn]
	if !ok {
		return
	}
	last := len(as.resident) - 1
	moved := as.resident[last]
	as.resident[idx] = moved
	as.residentIdx[moved] = idx
	as.resident = as.resident[:last]
	delete(as.residentIdx, vpn)
}

// invalidateTLBs drops page vpn from every context's TLB, counting each
// invalidation, and returns the bitmask of cores whose TLB held the
// translation — the TLB half of the shootdown sharer set.
func (as *AddressSpace) invalidateTLBs(vpn uint64) uint32 {
	var cores uint32
	for ctx := range as.tlbs {
		t := &as.tlbs[ctx][vpn%tlbSize]
		if t.valid && t.vpn == vpn {
			t.valid = false
			as.stats.Shootdowns++
			cores |= 1 << uint(as.mach.CoreOf(ctx))
		}
	}
	return cores
}

// chargeShootdown prices one translation invalidation of the page whose old
// physical frame is frame. The sharer set is the union of cores whose TLB
// held the translation (tlbCores) and cores the cache directory records as
// privately caching the page's lines — both may hold the stale translation
// or its cached data. Under IPI the initiator stalls for the fixed setup
// plus a per-sharer increment, and every sharer core absorbs the remote
// invalidate cost; HATRIC charges the same structure scaled by its factor.
// Initiator cycles accumulate in ShootdownStats (the policy and engine
// attribute them to detection/mapping overhead); remote cycles accumulate
// per core until the engine drains them into thread clocks.
func (as *AddressSpace) chargeShootdown(kind shootdownKind, frame int64, tlbCores uint32, now uint64) {
	if as.sdMode == topology.ShootdownNone {
		return
	}
	sharers := tlbCores
	if as.sharerSrc != nil && frame >= 0 {
		addr := uint64(frame) << as.pageShift
		sharers |= as.sharerSrc.PageSharerCores(addr, uint64(as.mach.PageSize))
	}
	n := bits.OnesCount32(sharers)
	p := as.sdCosts
	initCycles := uint64(p.InitiatorCycles) + uint64(p.PerSharerCycles)*uint64(n)
	remoteEachCycles := uint64(p.RemoteInvCycles)
	if as.sdMode == topology.ShootdownHATRIC {
		initCycles = uint64(float64(initCycles) * p.HATRICFactor)
		remoteEachCycles = uint64(float64(remoteEachCycles) * p.HATRICFactor)
	}
	if as.inj != nil && as.inj.Hit(faultinject.SiteVMShootdownDelay) {
		d := as.inj.Plan().ShootdownDelayCycles
		initCycles += d
		as.sd.DelayCycles += d
	}
	as.sd.Events++
	as.sd.SharersTotal += uint64(n)
	switch kind {
	case shootClear:
		as.sd.ClearInitCycles += initCycles
	case shootRemap:
		as.sd.RemapInitCycles += initCycles
	default:
		as.sd.UnmapInitCycles += initCycles
	}
	if remoteEachCycles > 0 {
		for m := sharers; m != 0; m &= m - 1 {
			core := bits.TrailingZeros32(m)
			if core < len(as.pendingRemote) {
				as.pendingRemote[core] += remoteEachCycles
				as.sd.RemoteCycles += remoteEachCycles
				as.pendingAny = true
			}
		}
	}
	as.probe.Emit(now, "vm", "tlb.shootdown", -1,
		obs.Str("kind", kind.String()),
		obs.Uint("sharers", uint64(n)),
		obs.Uint("init_cycles", initCycles),
		obs.Uint("remote_cycles", remoteEachCycles*uint64(n)))
}

// DrainRemoteStalls copies the per-core remote TLB-invalidate cycles
// accumulated since the last drain into out (grown as needed) and zeroes
// the pending buffer. The bool reports whether anything was pending; when
// false, out is returned untouched. The engine calls this after each policy
// tick — the only window where shootdowns happen — and adds each core's
// cycles to the clocks of the threads running there, in thread order, so
// the charge is a pure function of the simulated schedule.
func (as *AddressSpace) DrainRemoteStalls(out []uint64) ([]uint64, bool) {
	if !as.pendingAny {
		return out, false
	}
	if cap(out) < len(as.pendingRemote) {
		out = make([]uint64, len(as.pendingRemote))
	}
	out = out[:len(as.pendingRemote)]
	copy(out, as.pendingRemote)
	for i := range as.pendingRemote {
		as.pendingRemote[i] = 0
	}
	as.pendingAny = false
	return out, true
}

// ClearPresent clears the present bit of page vpn and shoots down the TLB
// entry on every context, so the next access faults. It reports whether the
// page was present. This is the primitive the SPCD sampler thread uses to
// create additional page faults (paper §III-B2). The shootdown is charged
// at virtual time 0; callers inside the simulation use ClearPresentAt.
func (as *AddressSpace) ClearPresent(vpn uint64) bool {
	return as.ClearPresentAt(vpn, 0)
}

// ClearPresentAt is ClearPresent at simulated time now, which timestamps the
// shootdown's trace event and prices it under the armed shootdown mode.
func (as *AddressSpace) ClearPresentAt(vpn uint64, now uint64) bool {
	entry := as.lookupPTE(vpn)
	if entry == nil || !entry.present {
		return false
	}
	entry.present = false
	as.removeResident(vpn)
	as.stats.PresentCleared++
	tlbCores := as.invalidateTLBs(vpn)
	as.chargeShootdown(shootClear, entry.frame, tlbCores, now)
	return true
}

// SampleResident picks up to k distinct resident pages uniformly at random
// using rng. The sampler thread combines this with ClearPresent.
func (as *AddressSpace) SampleResident(rng *rand.Rand, k int) []uint64 {
	n := len(as.resident)
	if k >= n {
		return append([]uint64(nil), as.resident...)
	}
	out := make([]uint64, 0, k)
	// Partial Fisher-Yates over a copy-free index trick: sample indices
	// without replacement by swapping into the tail of a scratch view.
	// To keep the resident list intact we sample indices via a map.
	seen := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vj, ok := seen[j]
		if !ok {
			vj = j
		}
		vi, ok := seen[i]
		if !ok {
			vi = i
		}
		seen[j] = vi
		out = append(out, as.resident[vj])
	}
	return out
}

// TLBPages appends the virtual page numbers currently cached in context
// ctx's TLB to out and returns it. The TLB-based detection mechanism of the
// authors' earlier work (Cruz et al., IPDPS 2012 — the paper's ref. [22])
// periodically compares TLB contents across cores to find shared pages;
// this accessor is the hardware hook that mechanism needs.
func (as *AddressSpace) TLBPages(ctx int, out []uint64) []uint64 {
	for _, e := range as.tlbs[ctx] {
		if e.valid {
			out = append(out, e.vpn)
		}
	}
	return out
}

// TLBSize returns the number of TLB entries per hardware context.
func (as *AddressSpace) TLBSize() int { return tlbSize }

// MigrateOutcome is the result of a page-migration attempt. Only MigrateOK
// moved the page; the distinction between the failure modes drives the
// policies' retry behavior (transient failures are worth retrying with
// backoff, a node at capacity is not until pages leave it).
type MigrateOutcome int

const (
	// MigrateOK: the page moved.
	MigrateOK MigrateOutcome = iota
	// MigrateNoop: nothing to do — the page is unmapped, already on the
	// target node, or the node is out of range.
	MigrateNoop
	// MigrateTransientFail: an injected transient failure, as move_pages(2)
	// returns -EAGAIN under memory pressure. Retrying later may succeed.
	MigrateTransientFail
	// MigrateCapacityFail: the target node is at its injected capacity cap.
	MigrateCapacityFail
)

// String names the outcome.
func (o MigrateOutcome) String() string {
	switch o {
	case MigrateOK:
		return "ok"
	case MigrateNoop:
		return "noop"
	case MigrateTransientFail:
		return "transient-fail"
	case MigrateCapacityFail:
		return "capacity-fail"
	}
	return fmt.Sprintf("MigrateOutcome(%d)", int(o))
}

// MigratePage moves page vpn to NUMA node, modeling the kernel's page
// migration (copy to a frame on the target node, remap, TLB shootdown). It
// reports whether a migration happened (false if unmapped or already
// there, and under fault injection also on transient or capacity failures).
// Callers that need to distinguish the failure modes use TryMigratePage.
// The frame number changes, so physically indexed caches naturally treat
// the moved page as cold.
func (as *AddressSpace) MigratePage(vpn uint64, node int) bool {
	return as.TryMigratePage(vpn, node) == MigrateOK
}

// TryMigratePage is MigratePage with the full outcome: it distinguishes
// no-ops from the injected failure modes so policies can retry transient
// failures with backoff and give up on exhausted nodes. The shootdown is
// charged at virtual time 0; callers inside the simulation use
// TryMigratePageAt.
func (as *AddressSpace) TryMigratePage(vpn uint64, node int) MigrateOutcome {
	return as.TryMigratePageAt(vpn, node, 0)
}

// TryMigratePageAt is TryMigratePage at simulated time now. On a successful
// migration the stale translation's shootdown is priced against the page's
// old frame — the frame whose lines the directory attributes to sharer
// cores — before the remap installs the new one.
func (as *AddressSpace) TryMigratePageAt(vpn uint64, node int, now uint64) MigrateOutcome {
	entry := as.lookupPTE(vpn)
	if entry == nil || int(entry.node) == node || node < 0 || node >= as.mach.NumNodes() {
		return MigrateNoop
	}
	if as.inj != nil {
		// Capacity is checked first: it is a persistent property of the
		// target node, while the transient draw models this attempt only.
		if as.inj.NodeOverCapacity(as.nodePages[node], as.mappedPages, as.mach.NumNodes()) {
			return MigrateCapacityFail
		}
		if as.inj.Hit(faultinject.SiteVMMigrateFail) {
			return MigrateTransientFail
		}
	}
	oldFrame := entry.frame
	as.nodePages[entry.node]--
	as.nodePages[node]++
	entry.node = int8(node)
	entry.frame = as.nextFrame
	as.nextFrame++
	as.stats.PageMigrations++
	tlbCores := as.invalidateTLBs(vpn)
	as.chargeShootdown(shootRemap, oldFrame, tlbCores, now)
	return MigrateOK
}

// Unmap removes page vpn from the address space entirely, modeling
// munmap(2): the mapping is destroyed, its frame's node count released, and
// the stale translation shot down on every context that held it. It reports
// whether the page was mapped. Nothing in the paper's mechanism unmaps
// pages mid-run; the primitive exists so the shootdown cost model covers
// the full invalidation surface (remap, unmap, present-clear).
func (as *AddressSpace) Unmap(vpn uint64, now uint64) bool {
	entry := as.lookupPTE(vpn)
	if entry == nil {
		return false
	}
	if entry.present {
		as.removeResident(vpn)
	}
	as.nodePages[entry.node]--
	oldFrame := entry.frame
	as.mappedPages--
	*entry = pte{}
	tlbCores := as.invalidateTLBs(vpn)
	as.chargeShootdown(shootUnmap, oldFrame, tlbCores, now)
	return true
}

// Present reports whether page vpn is mapped and present.
func (as *AddressSpace) Present(vpn uint64) bool {
	e := as.lookupPTE(vpn)
	return e != nil && e.present
}

// NodeOfPage returns the NUMA node homing page vpn, or -1 if unmapped.
func (as *AddressSpace) NodeOfPage(vpn uint64) int {
	if e := as.lookupPTE(vpn); e != nil {
		return int(e.node)
	}
	return -1
}

// String summarizes the address space.
func (as *AddressSpace) String() string {
	return fmt.Sprintf("vm: %d pages mapped, %d resident, %d faults (%d induced)",
		as.mappedPages, len(as.resident), as.stats.TotalFaults(), as.stats.InducedFaults)
}
