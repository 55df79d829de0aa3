// Package topology models a shared-memory NUMA machine as a tree of sharing
// domains: SMT contexts inside cores, cores inside sockets (which double as
// NUMA nodes), and sockets inside the machine. The mapping mechanism only
// needs the distance structure between hardware contexts and the enumeration
// of sharing clusters; the cache simulator additionally uses the cache
// geometry and latency parameters stored here.
//
// The default machine reproduces Table I of the paper: two Intel Xeon
// E5-2650 processors, each with eight 2-way SMT cores, private L1/L2 caches
// and a 20 MByte L3 shared per socket.
package topology

import (
	"errors"
	"fmt"
)

// Level classifies the closest sharing domain two hardware contexts have in
// common. Smaller is closer (cheaper communication).
type Level int

const (
	// LevelSMT means the contexts are SMT siblings on the same core and
	// communicate through the private L1/L2 caches (path "a" in Fig. 1).
	LevelSMT Level = iota
	// LevelSocket means the contexts are on different cores of the same
	// socket and communicate through the shared L3 (path "b" in Fig. 1).
	LevelSocket
	// LevelCross means the contexts are on different sockets and
	// communicate over the off-chip interconnect (path "c" in Fig. 1).
	LevelCross
	// LevelSelf is returned for a context compared with itself.
	LevelSelf
)

// String returns a short human-readable name for the level.
func (l Level) String() string {
	switch l {
	case LevelSMT:
		return "smt"
	case LevelSocket:
		return "socket"
	case LevelCross:
		return "cross"
	case LevelSelf:
		return "self"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Latencies holds the cost, in core cycles, of resolving a memory access at
// each point of the hierarchy. Cache-to-cache (C2C) entries are the cost of a
// coherence transfer from a cache at the given distance.
type Latencies struct {
	L1             int // hit in the private L1
	L2             int // hit in the private L2
	L3             int // hit in the socket-local L3
	C2CSameCore    int // dirty line supplied by the SMT sibling's L1/L2
	C2CSameSocket  int // dirty line supplied by another core on the socket
	C2CCrossSocket int // dirty line supplied by a core on the other socket
	DRAMLocal      int // miss served by the local NUMA node
	DRAMRemote     int // miss served by the remote NUMA node
}

// CacheGeometry describes one cache level of the machine.
type CacheGeometry struct {
	Size  int // total bytes
	Assoc int // ways
}

// ShootdownMode selects the translation-coherence scheme the machine charges
// on every page remap, unmap, and present-bit clear. None is free (today's
// idealized behavior); IPI models the Linux software path (initiator IPIs
// every core that may cache the translation and waits for acknowledgments);
// HATRIC models directory-driven hardware translation coherence, which
// invalidates remote TLB entries at a fraction of the IPI cost.
type ShootdownMode int

const (
	// ShootdownNone charges remaps nothing: translations are assumed
	// coherent for free, as the simulator behaved before this knob existed.
	ShootdownNone ShootdownMode = iota
	// ShootdownIPI charges the software inter-processor-interrupt protocol:
	// the initiating context stalls for the flush setup plus one IPI per
	// sharer core, and every sharer core absorbs a remote invalidate cost.
	ShootdownIPI
	// ShootdownHATRIC charges a HATRIC-style hardware scheme: the cache
	// directory carries translation coherence, so the same sharer set is
	// invalidated at HATRICFactor of the IPI cost.
	ShootdownHATRIC
)

// String returns the CLI spelling of the mode.
func (m ShootdownMode) String() string {
	switch m {
	case ShootdownNone:
		return "none"
	case ShootdownIPI:
		return "ipi"
	case ShootdownHATRIC:
		return "hatric"
	}
	return fmt.Sprintf("ShootdownMode(%d)", int(m))
}

// ParseShootdownMode parses the CLI spelling of a shootdown mode.
func ParseShootdownMode(s string) (ShootdownMode, error) {
	switch s {
	case "none", "":
		return ShootdownNone, nil
	case "ipi":
		return ShootdownIPI, nil
	case "hatric":
		return ShootdownHATRIC, nil
	}
	return ShootdownNone, fmt.Errorf("topology: unknown shootdown mode %q (want none, ipi or hatric)", s)
}

// ShootdownParams holds the translation-coherence costs, in core cycles.
// The IPI figures follow the software path's measured structure: a large
// fixed initiator stall (interrupt setup, wait-for-acks serialization), a
// smaller per-sharer increment, and the remote core's interrupt-entry +
// TLB-invalidate cost charged to each sharer. HATRIC reuses the same sharer
// set but scales every component by HATRICFactor.
type ShootdownParams struct {
	InitiatorCycles int // fixed initiator stall per shootdown
	PerSharerCycles int // additional initiator stall per sharer core
	RemoteInvCycles int // cycles each sharer core loses to the invalidate
	// HATRICFactor scales all three costs under ShootdownHATRIC
	// (dimensionless fraction of the IPI cost, in (0, 1]).
	HATRICFactor float64
}

// Machine describes the hardware platform. The zero value is not usable;
// construct instances with New or DefaultXeon.
type Machine struct {
	Sockets        int // number of processors / NUMA nodes
	CoresPerSocket int
	ThreadsPerCore int // SMT width

	LineSize int // cache line size in bytes
	PageSize int // virtual memory page size in bytes

	L1, L2, L3 CacheGeometry // L1/L2 private per core, L3 shared per socket

	Lat Latencies

	// Shootdown selects the translation-coherence scheme; ShootdownCosts
	// parameterizes it. ShootdownNone (the zero value) keeps remaps free.
	Shootdown      ShootdownMode
	ShootdownCosts ShootdownParams

	ClockHz float64 // core frequency, used to convert cycles to seconds
}

// New builds a machine with the given shape and the default Xeon E5-2650
// cache geometry and latencies. It returns an error for degenerate shapes.
func New(sockets, coresPerSocket, threadsPerCore int) (*Machine, error) {
	m := DefaultXeon()
	m.Sockets = sockets
	m.CoresPerSocket = coresPerSocket
	m.ThreadsPerCore = threadsPerCore
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// DefaultXeon returns the dual-socket Intel Xeon E5-2650 machine from
// Table I of the paper: 2 sockets x 8 cores x 2 SMT = 32 hardware contexts,
// 32 KByte L1d, 256 KByte L2, 20 MByte L3, 4 KByte pages, 2.0 GHz.
func DefaultXeon() *Machine {
	return &Machine{
		Sockets:        2,
		CoresPerSocket: 8,
		ThreadsPerCore: 2,
		LineSize:       64,
		PageSize:       4096,
		L1:             CacheGeometry{Size: 32 * 1024, Assoc: 8},
		L2:             CacheGeometry{Size: 256 * 1024, Assoc: 8},
		L3:             CacheGeometry{Size: 20 * 1024 * 1024, Assoc: 20},
		// Latencies are *effective* per-access costs. DRAM figures are
		// amortized for the memory-level parallelism and prefetching
		// that hide most streaming latency on real hardware, while
		// coherence transfers (C2C) carry their full cost: a dirty miss
		// is a serialization point that neither prefetchers nor MLP can
		// hide. This balance is what makes communication placement
		// matter on the real machine (§II-A).
		Lat: Latencies{
			L1:             4,
			L2:             12,
			L3:             35,
			C2CSameCore:    8,
			C2CSameSocket:  50,
			C2CCrossSocket: 200,
			DRAMLocal:      70,
			DRAMRemote:     110,
		},
		// Remaps are free by default (Shootdown: none) so existing runs stay
		// byte-identical; the parameters below take effect only when a mode
		// is armed. The IPI figures follow the measured shape of the Linux
		// software path at this clock: a few microseconds of initiator stall
		// dominated by wait-for-acks, a modest per-target increment, and an
		// interrupt-entry + invlpg cost on every sharer. HATRIC's evaluation
		// reports hardware translation coherence recovering most of that, so
		// the default factor charges one fifth of the software cost.
		Shootdown: ShootdownNone,
		ShootdownCosts: ShootdownParams{
			InitiatorCycles: 4000,
			PerSharerCycles: 400,
			RemoteInvCycles: 1200,
			HATRICFactor:    0.2,
		},
		ClockHz: 2.0e9,
	}
}

// MaxCores is the widest machine the simulator models: the cache
// directory records each line's sharers, invalidations and evictions as
// 32-bit core bitsets, so a core past bit 31 would never be tracked.
const MaxCores = 32

// Validate reports whether the machine description is internally consistent.
func (m *Machine) Validate() error {
	switch {
	case m.Sockets < 1:
		return errors.New("topology: need at least one socket")
	case m.CoresPerSocket < 1:
		return errors.New("topology: need at least one core per socket")
	case m.ThreadsPerCore < 1:
		return errors.New("topology: need at least one thread per core")
	case m.NumCores() > MaxCores:
		return fmt.Errorf("topology: %d cores exceed the cache directory's %d-core sharer bitsets",
			m.NumCores(), MaxCores)
	case m.LineSize <= 0 || m.LineSize&(m.LineSize-1) != 0:
		return fmt.Errorf("topology: line size %d is not a positive power of two", m.LineSize)
	case m.PageSize <= 0 || m.PageSize&(m.PageSize-1) != 0:
		return fmt.Errorf("topology: page size %d is not a positive power of two", m.PageSize)
	case m.PageSize < m.LineSize:
		return fmt.Errorf("topology: page size %d smaller than line size %d", m.PageSize, m.LineSize)
	case m.L1.Size <= 0 || m.L2.Size <= 0 || m.L3.Size <= 0:
		return errors.New("topology: cache sizes must be positive")
	case m.L1.Assoc <= 0 || m.L2.Assoc <= 0 || m.L3.Assoc <= 0:
		return errors.New("topology: cache associativities must be positive")
	case m.ClockHz <= 0:
		return errors.New("topology: clock frequency must be positive")
	}
	if m.Shootdown != ShootdownNone {
		c := m.ShootdownCosts
		switch {
		case m.Shootdown != ShootdownIPI && m.Shootdown != ShootdownHATRIC:
			return fmt.Errorf("topology: unknown shootdown mode %d", int(m.Shootdown))
		case c.InitiatorCycles < 0 || c.PerSharerCycles < 0 || c.RemoteInvCycles < 0:
			return errors.New("topology: shootdown cycle costs must be non-negative")
		case c.InitiatorCycles == 0 && c.PerSharerCycles == 0 && c.RemoteInvCycles == 0:
			return errors.New("topology: shootdown mode armed with all-zero costs; use ShootdownNone instead")
		}
		if m.Shootdown == ShootdownHATRIC && (c.HATRICFactor <= 0 || c.HATRICFactor > 1) {
			return fmt.Errorf("topology: HATRIC factor %g outside (0, 1]", c.HATRICFactor)
		}
	}
	return nil
}

// NumContexts returns the total number of hardware contexts (SMT threads).
func (m *Machine) NumContexts() int {
	return m.Sockets * m.CoresPerSocket * m.ThreadsPerCore
}

// NumCores returns the total number of physical cores.
func (m *Machine) NumCores() int { return m.Sockets * m.CoresPerSocket }

// NumNodes returns the number of NUMA nodes (one per socket).
func (m *Machine) NumNodes() int { return m.Sockets }

// Context numbering is socket-major: context c belongs to
// socket c / (CoresPerSocket*ThreadsPerCore), core (c / ThreadsPerCore) %
// CoresPerSocket within that socket, and SMT slot c % ThreadsPerCore.

// SocketOf returns the socket (and NUMA node) that hosts context ctx.
func (m *Machine) SocketOf(ctx int) int {
	return ctx / (m.CoresPerSocket * m.ThreadsPerCore)
}

// CoreOf returns the global core index that hosts context ctx.
func (m *Machine) CoreOf(ctx int) int { return ctx / m.ThreadsPerCore }

// SMTSlotOf returns the SMT slot of context ctx within its core.
func (m *Machine) SMTSlotOf(ctx int) int { return ctx % m.ThreadsPerCore }

// NodeOf returns the NUMA node local to context ctx. On this machine model
// NUMA nodes coincide with sockets.
func (m *Machine) NodeOf(ctx int) int { return m.SocketOf(ctx) }

// ContextOf returns the context index for a (socket, core-in-socket, slot)
// triple.
func (m *Machine) ContextOf(socket, core, slot int) int {
	return (socket*m.CoresPerSocket+core)*m.ThreadsPerCore + slot
}

// Distance classifies the sharing distance between two contexts.
func (m *Machine) Distance(a, b int) Level {
	switch {
	case a == b:
		return LevelSelf
	case m.CoreOf(a) == m.CoreOf(b):
		return LevelSMT
	case m.SocketOf(a) == m.SocketOf(b):
		return LevelSocket
	default:
		return LevelCross
	}
}

// C2CLatency returns the cycles needed to transfer a cache line from the
// cache of context "from" to context "to".
func (m *Machine) C2CLatency(from, to int) int {
	switch m.Distance(from, to) {
	case LevelSelf, LevelSMT:
		return m.Lat.C2CSameCore
	case LevelSocket:
		return m.Lat.C2CSameSocket
	default:
		return m.Lat.C2CCrossSocket
	}
}

// DRAMLatency returns the cycles for a DRAM access by context ctx to memory
// homed on NUMA node node.
func (m *Machine) DRAMLatency(ctx, node int) int {
	if m.NodeOf(ctx) == node {
		return m.Lat.DRAMLocal
	}
	return m.Lat.DRAMRemote
}

// CoreSiblings returns the contexts of global core index core.
func (m *Machine) CoreSiblings(core int) []int {
	out := make([]int, m.ThreadsPerCore)
	for i := range out {
		out[i] = core*m.ThreadsPerCore + i
	}
	return out
}

// SocketContexts returns all contexts on the given socket.
func (m *Machine) SocketContexts(socket int) []int {
	per := m.CoresPerSocket * m.ThreadsPerCore
	out := make([]int, per)
	for i := range out {
		out[i] = socket*per + i
	}
	return out
}

// Clusters returns the partition of contexts into sharing domains at the
// given level: one cluster per core for LevelSMT, one per socket for
// LevelSocket, and a single machine-wide cluster for LevelCross.
func (m *Machine) Clusters(level Level) [][]int {
	switch level {
	case LevelSMT:
		out := make([][]int, m.NumCores())
		for c := range out {
			out[c] = m.CoreSiblings(c)
		}
		return out
	case LevelSocket:
		out := make([][]int, m.Sockets)
		for s := range out {
			out[s] = m.SocketContexts(s)
		}
		return out
	default:
		all := make([]int, m.NumContexts())
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
}

// GroupSizes returns the sizes of the sharing domains from the leaves up:
// contexts per core, contexts per socket, contexts per machine. The
// hierarchical mapping algorithm folds thread groups until they fit these
// sizes.
func (m *Machine) GroupSizes() []int {
	return []int{
		m.ThreadsPerCore,
		m.ThreadsPerCore * m.CoresPerSocket,
		m.NumContexts(),
	}
}

// CyclesToSeconds converts a cycle count to wall-clock seconds at the
// machine's clock frequency.
func (m *Machine) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / m.ClockHz
}

// SecondsToCycles converts wall-clock seconds to cycles.
func (m *Machine) SecondsToCycles(sec float64) uint64 {
	return uint64(sec * m.ClockHz)
}

// String summarizes the machine shape.
func (m *Machine) String() string {
	return fmt.Sprintf("%d sockets x %d cores x %d SMT (%d contexts), L1 %dK L2 %dK L3 %dM",
		m.Sockets, m.CoresPerSocket, m.ThreadsPerCore, m.NumContexts(),
		m.L1.Size/1024, m.L2.Size/1024, m.L3.Size/(1024*1024))
}
