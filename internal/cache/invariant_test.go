package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"spcd/internal/topology"
)

// checkConsistency verifies the structural invariant between the coherence
// directory and the cache arrays: a core holds a line in its private caches
// if and only if the directory lists it as a sharer, a line never resides in
// both L1 and L2 of one core (the exclusive design), and a dirty owner is
// always a sharer. It also checks every array's recency-list layout: the
// valid ways of each set form a prefix and no line appears twice in a set.
func (h *Hierarchy) checkConsistency() error {
	for c := range h.l1 {
		if err := h.l1[c].checkSets(); err != nil {
			return fmt.Errorf("core %d L1: %v", c, err)
		}
		if err := h.l2[c].checkSets(); err != nil {
			return fmt.Errorf("core %d L2: %v", c, err)
		}
	}
	for s := range h.l3 {
		if err := h.l3[s].checkSets(); err != nil {
			return fmt.Errorf("socket %d L3: %v", s, err)
		}
	}
	type residency struct{ l1, l2 bool }
	resident := make(map[uint64]map[int]*residency)
	record := func(a *array, core int, isL1 bool) {
		for _, w := range a.tags {
			if w == 0 {
				continue
			}
			line := slotLine(w)
			if resident[line] == nil {
				resident[line] = make(map[int]*residency)
			}
			r := resident[line][core]
			if r == nil {
				r = &residency{}
				resident[line][core] = r
			}
			if isL1 {
				r.l1 = true
			} else {
				r.l2 = true
			}
		}
	}
	for c := range h.l1 {
		record(h.l1[c], c, true)
		record(h.l2[c], c, false)
	}
	// Array residency implies directory sharing (and exclusivity).
	for line, cores := range resident {
		e := h.entry(line)
		for core, r := range cores {
			if r.l1 && r.l2 {
				return fmt.Errorf("line %#x in both L1 and L2 of core %d", line, core)
			}
			if !coreHolds(e, core) {
				return fmt.Errorf("line %#x resident in core %d but not in directory", line, core)
			}
		}
	}
	// Directory sharing implies array residency; owners are sharers.
	for ci, ch := range h.dir {
		if ch == nil {
			continue
		}
		for li := range ch {
			e := &ch[li]
			if e.sharers == 0 && e.ownerPlus1 == 0 {
				continue
			}
			line := uint64(ci)<<dirChunkBits | uint64(li)
			if ow := e.owner(); ow >= 0 && !coreHolds(e, ow) {
				return fmt.Errorf("line %#x owned by core %d which is not a sharer", line, ow)
			}
			for c := 0; c < h.mach.NumCores(); c++ {
				if !coreHolds(e, c) {
					continue
				}
				r := resident[line][c]
				if r == nil {
					return fmt.Errorf("directory says core %d holds line %#x but arrays disagree", c, line)
				}
			}
		}
	}
	return nil
}

// checkSets verifies that each set's valid ways form a prefix, that every
// line sits in the set it maps to, and that no line appears twice in a set.
func (a *array) checkSets() error {
	for base := 0; base < len(a.tags); base += a.ways {
		set := a.tags[base : base+a.ways]
		seen := make(map[uint64]bool, a.ways)
		for i, w := range set {
			if w == 0 {
				for j := i + 1; j < len(set); j++ {
					if set[j] != 0 {
						return fmt.Errorf("set at slot %d: valid way %d follows empty way %d", base, j, i)
					}
				}
				break
			}
			line := slotLine(w)
			if seen[line] {
				return fmt.Errorf("set at slot %d: line %#x appears twice", base, line)
			}
			seen[line] = true
			if got := &a.set(line)[0]; got != &set[0] {
				return fmt.Errorf("set at slot %d holds line %#x of another set", base, line)
			}
		}
	}
	return nil
}

// TestDirectoryArrayConsistency drives random traffic through the hierarchy
// and checks the directory/array invariant at intervals. This is the
// correctness backbone of the coherence model: every c2c and invalidation
// count the evaluation reports depends on it.
func TestDirectoryArrayConsistency(t *testing.T) {
	h := New(topology.DefaultXeon())
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 40; step++ {
		for i := 0; i < 2500; i++ {
			ctx := rng.Intn(32)
			// Mix of hot shared lines and a wide private range to force
			// evictions and invalidations.
			var addr uint64
			if rng.Float64() < 0.3 {
				addr = uint64(rng.Intn(256)) * 64
			} else {
				addr = 1<<20 + uint64(rng.Intn(200_000))*64
			}
			h.Access(ctx, addr, rng.Intn(3) == 0, rng.Intn(2))
		}
		if err := h.checkConsistency(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestPairCountersMatchTotals verifies that the per-pair counters, when
// enabled, sum to the aggregate owner-transfer count.
func TestPairCountersMatchTotals(t *testing.T) {
	h := New(topology.DefaultXeon())
	h.EnablePairCounters()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30_000; i++ {
		h.Access(rng.Intn(32), uint64(rng.Intn(512))*64, rng.Intn(2) == 0, 0)
	}
	pair := h.PairC2C()
	var sum uint64
	for _, row := range pair {
		for _, v := range row {
			sum += v
		}
	}
	st := h.Stats()
	if sum > st.C2CTotal() {
		t.Fatalf("pair counters (%d) exceed total c2c (%d)", sum, st.C2CTotal())
	}
	if sum == 0 {
		t.Fatal("no pair transfers recorded under contention")
	}
	// Pair counters only record owner-supplied transfers (not clean
	// remote-L3 hits), so they bound from below but must account for the
	// majority under write-heavy sharing.
	if sum*2 < st.C2CTotal() {
		t.Errorf("pair counters (%d) cover under half of c2c total (%d)", sum, st.C2CTotal())
	}
}

func TestPairCountersDisabledByDefault(t *testing.T) {
	h := New(topology.DefaultXeon())
	h.Access(0, 0, true, 0)
	h.Access(2, 0, false, 0)
	if h.PairC2C() != nil {
		t.Error("pair counters should be nil unless enabled")
	}
	h.EnablePairCounters()
	h.EnablePairCounters() // idempotent
	if h.PairC2C() == nil {
		t.Error("pair counters missing after enable")
	}
}
