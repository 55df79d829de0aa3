package scenario

import (
	"spcd/internal/workloads"
)

// tenantOffset is the virtual-address displacement of tenant spec index
// idx. Tenant address spaces must not collide inside one interval's shared
// MMU: workload regions top out at privateBase (1<<40) plus region strides,
// so spacing tenants 1<<44 apart keeps every mix disjoint. idx+1 keeps
// tenant 0 clear of the unshifted layout too, so a stray unshifted address
// would fault visibly instead of aliasing.
func tenantOffset(idx int) uint64 { return uint64(idx+1) << 44 }

// compEntry is one active tenant's slice of the composite workload.
type compEntry struct {
	st      *tenantState
	base    int // first composite thread id
	threads int
}

// composite presents the active tenant mix of one serving interval as a
// single engine workload. Composite thread ids are dense and ordered by
// tenant spec index, so the same mix always produces the same thread
// numbering. Each thread draws from its tenant's persistent phase stream —
// the stream continues across intervals exactly where it stopped — and is
// budgeted to the interval: once a thread has delivered its share of
// accesses (IntervalCycles worth at nominal speed) it reports done for this
// interval and the engine retires it.
//
// The composite deliberately does not implement workloads.Initializer: a
// tenant's pages are homed by whichever of its threads touches them first
// under the serving placement, the natural behavior for applications
// started mid-serving (DESIGN.md §16 discusses the difference from the
// single-application master-thread init).
type composite struct {
	entries []compEntry
	// entryOf/localOf map a composite thread to its tenant entry and
	// tenant-local thread index.
	entryOf []int
	localOf []int
	budget  uint64
	compute int
	// active is the run the engine instantiated, kept so the serving loop
	// can read back per-thread delivered counts after the interval.
	active *compositeRun
}

// newComposite builds the interval workload over the active tenants, in
// spec order. budget is the per-thread access allowance of the interval.
func newComposite(active []*tenantState, budget uint64, compute int) *composite {
	c := &composite{budget: budget, compute: compute}
	for _, st := range active {
		e := compEntry{st: st, base: len(c.entryOf), threads: st.spec.Threads}
		for l := 0; l < e.threads; l++ {
			c.entryOf = append(c.entryOf, len(c.entries))
			c.localOf = append(c.localOf, l)
		}
		c.entries = append(c.entries, e)
	}
	return c
}

// Name implements workloads.Workload.
func (c *composite) Name() string { return "scenario" }

// NumThreads implements workloads.Workload.
func (c *composite) NumThreads() int { return len(c.entryOf) }

// AccessesPerThread implements workloads.Workload: the interval budget.
// NominalCycles of the composite is therefore the interval length, which is
// what scales the engine tick and the inner policy's periods.
func (c *composite) AccessesPerThread() uint64 { return c.budget }

// ComputeCyclesPerAccess implements workloads.Workload.
func (c *composite) ComputeCyclesPerAccess() int { return c.compute }

// NewRun implements workloads.Workload. The seed is ignored: tenant streams
// are seeded positionally at admission and persist across intervals. The
// engine calls NewRun exactly once per run; the composite keeps the run so
// the serving loop can read delivered counts back.
func (c *composite) NewRun(int64) workloads.Run {
	r := &compositeRun{
		c:         c,
		remaining: make([]uint64, len(c.entryOf)),
		delivered: make([]uint64, len(c.entryOf)),
	}
	for i := range r.remaining {
		r.remaining[i] = c.budget
	}
	c.active = r
	return r
}

// compositeRun adapts the persistent tenant streams to one interval.
// Next touches only per-thread state (the budget slots here, the tenant
// stream's per-thread generator state), so its output for a thread depends
// only on that thread's earlier calls, exactly like any other workload run.
type compositeRun struct {
	c         *composite
	remaining []uint64
	delivered []uint64
}

// Next implements workloads.Run: up to the interval budget of thread t,
// drawn from the tenant's persistent stream, displaced into the tenant's
// address window.
func (r *compositeRun) Next(t int, buf []workloads.Access) int {
	e := &r.c.entries[r.c.entryOf[t]]
	local := r.c.localOf[t]
	if e.st.exhausted[local] {
		return 0
	}
	rem := r.remaining[t]
	if rem == 0 {
		return 0
	}
	n := len(buf)
	if uint64(n) > rem {
		n = int(rem)
	}
	k := e.st.run.Next(local, buf[:n])
	if k == 0 {
		e.st.exhausted[local] = true
		return 0
	}
	off := e.st.offset
	for i := 0; i < k; i++ {
		buf[i].Addr += off
	}
	r.remaining[t] = rem - uint64(k)
	r.delivered[t] += uint64(k)
	return k
}
