package cache

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"spcd/internal/topology"
)

// refArray is the stamp-and-bitset array that the recency-ordered array
// replaced, kept verbatim but for its name as the reference that
// TestArrayMatchesReference and FuzzArrayMatchesReference compare against.
//
// It is one physical set-associative cache with LRU replacement. The
// valid and dirty bits are packed bitsets (one bit per slot) so a set's
// metadata shares a cache line with its neighbors instead of spanning a
// []bool, and the set-base computation is a mask when the set count is a
// power of two (it is, for every realistic geometry).
type refArray struct {
	sets, ways int
	setMask    uint64 // sets-1 when sets is a power of two
	pow2       bool
	tags       []uint64
	valid      []uint64 // packed: bit i = slot i
	dirty      []uint64 // packed: bit i = slot i
	stamp      []uint64
	clock      uint64
}

func newRefArray(geom topology.CacheGeometry, lineSize int) *refArray {
	lines := geom.Size / lineSize
	ways := geom.Assoc
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	n := sets * ways
	return &refArray{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		pow2:    sets&(sets-1) == 0,
		tags:    make([]uint64, n),
		valid:   make([]uint64, (n+63)/64),
		dirty:   make([]uint64, (n+63)/64),
		stamp:   make([]uint64, n),
	}
}

// setBase returns the first slot of the set holding line.
func (a *refArray) setBase(line uint64) int {
	if a.pow2 {
		return int(line&a.setMask) * a.ways
	}
	return int(line%uint64(a.sets)) * a.ways
}

func (a *refArray) isValid(i int) bool { return a.valid[i>>6]&(1<<(uint(i)&63)) != 0 }
func (a *refArray) setValid(i int)     { a.valid[i>>6] |= 1 << (uint(i) & 63) }
func (a *refArray) clearValid(i int)   { a.valid[i>>6] &^= 1 << (uint(i) & 63) }
func (a *refArray) isDirty(i int) bool { return a.dirty[i>>6]&(1<<(uint(i)&63)) != 0 }
func (a *refArray) setDirty(i int)     { a.dirty[i>>6] |= 1 << (uint(i) & 63) }
func (a *refArray) clearDirty(i int)   { a.dirty[i>>6] &^= 1 << (uint(i) & 63) }

// find returns the slot holding line, or -1. The tag is compared before the
// valid bit: tags of invalid slots are stale but a match is rare, so the
// common-case iteration touches only the tag array.
func (a *refArray) find(line uint64) int {
	base := a.setBase(line)
	for i := base; i < base+a.ways; i++ {
		if a.tags[i] == line && a.isValid(i) {
			return i
		}
	}
	return -1
}

// lookup probes for line and refreshes its LRU stamp on a hit.
func (a *refArray) lookup(line uint64) bool {
	if i := a.find(line); i >= 0 {
		a.clock++
		a.stamp[i] = a.clock
		return true
	}
	return false
}

// probe checks residency without disturbing LRU state.
func (a *refArray) probe(line uint64) bool { return a.find(line) >= 0 }

// markDirty sets the dirty bit of a resident line.
func (a *refArray) markDirty(line uint64) {
	if i := a.find(line); i >= 0 {
		a.setDirty(i)
	}
}

// insert places line, evicting the LRU way if the set is full. It returns
// the evicted line and whether one was evicted (and dirty). Victim choice
// (first invalid slot, else lowest stamp in slot order) is part of the
// deterministic simulation contract — do not reorder.
func (a *refArray) insert(line uint64, dirty bool) (evicted uint64, evictedDirty, hadEviction bool) {
	base := a.setBase(line)
	victim := base
	for w := 0; w < a.ways; w++ {
		i := base + w
		if !a.isValid(i) {
			victim = i
			break
		}
		if a.stamp[i] < a.stamp[victim] {
			victim = i
		}
	}
	if a.isValid(victim) {
		evicted = a.tags[victim]
		evictedDirty = a.isDirty(victim)
		hadEviction = true
	}
	a.clock++
	a.tags[victim] = line
	a.setValid(victim)
	if dirty {
		a.setDirty(victim)
	} else {
		a.clearDirty(victim)
	}
	a.stamp[victim] = a.clock
	return evicted, evictedDirty, hadEviction
}

// invalidate removes line if resident, reporting whether it was dirty.
func (a *refArray) invalidate(line uint64) (wasDirty, was bool) {
	if i := a.find(line); i >= 0 {
		a.clearValid(i)
		return a.isDirty(i), true
	}
	return false, false
}

// arrayShapes are the (sets, ways) geometries the equivalence tests drive:
// a single slot, a non-power-of-two set count, an L1-like and an L3-like
// array.
var arrayShapes = [][2]int{{1, 1}, {3, 2}, {64, 8}, {16, 20}}

// maxRefOps bounds the operations one matchReference call replays.
const maxRefOps = 4096

// matchReference replays an operation stream decoded from data through a
// recency-ordered array and the reference array and fails on the first
// difference in a return value or in any set's resident (line, dirty)
// contents listed in LRU order. data[0] picks the geometry and a high line
// offset; every following 3 bytes are one operation on one line, up to
// maxRefOps operations so that each fuzz execution stays fast. The
// operations are the compositions the hierarchy performs: lookup, lookup
// with the dirty bit set (the reference's lookup+markDirty), probe, clean
// and dirty insert of a non-resident line, and invalidate.
func matchReference(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	shape := arrayShapes[int(data[0])%len(arrayShapes)]
	geom := topology.CacheGeometry{Size: shape[0] * shape[1] * 64, Assoc: shape[1]}
	a, ref := newArray(geom, 64), newRefArray(geom, 64)
	if a.sets != shape[0] || a.ways != shape[1] {
		t.Fatalf("geometry %v built %dx%d", shape, a.sets, a.ways)
	}
	if max := 1 + 3*maxRefOps; len(data) > max {
		data = data[:max]
	}
	base := uint64(data[0]>>4) << 52
	universe := uint64(2*shape[0]*shape[1] + 1) // enough lines to force evictions
	for step, op := 0, data[1:]; len(op) >= 3; step, op = step+1, op[3:] {
		line := base + (uint64(op[1])<<8|uint64(op[2]))%universe
		var got, want string
		switch op[0] % 6 {
		case 0:
			got = fmt.Sprint("lookup ", a.lookup(line, false))
			want = fmt.Sprint("lookup ", ref.lookup(line))
		case 1:
			got = fmt.Sprint("dirty lookup ", a.lookup(line, true))
			hit := ref.lookup(line)
			if hit {
				ref.markDirty(line)
			}
			want = fmt.Sprint("dirty lookup ", hit)
		case 2:
			got = fmt.Sprint("probe ", a.probe(line))
			want = fmt.Sprint("probe ", ref.probe(line))
		case 3, 4:
			if ref.probe(line) {
				continue // insert's precondition: the line is absent
			}
			dirty := op[0]%6 == 4
			ev, evDirty, had := a.insert(line, dirty)
			rev, revDirty, rhad := ref.insert(line, dirty)
			got = fmt.Sprint("insert ", ev, evDirty, had)
			want = fmt.Sprint("insert ", rev, revDirty, rhad)
		case 5:
			wasDirty, was := a.invalidate(line)
			rwasDirty, rwas := ref.invalidate(line)
			got = fmt.Sprint("invalidate ", wasDirty, was)
			want = fmt.Sprint("invalidate ", rwasDirty, rwas)
		}
		if got != want {
			t.Fatalf("step %d line %#x: %s, reference %s", step, line, got, want)
		}
		// An operation changes only the set its line maps to.
		s := int(line % uint64(a.sets))
		if got, want := a.contents(s), ref.contents(s); got != want {
			t.Fatalf("step %d line %#x: set %d holds %s, reference %s", step, line, s, got, want)
		}
	}
	if err := a.checkSets(); err != nil {
		t.Fatalf("end: %v", err)
	}
	for s := 0; s < a.sets; s++ {
		if got, want := a.contents(s), ref.contents(s); got != want {
			t.Fatalf("end: set %d holds %s, reference %s", s, got, want)
		}
	}
}

// contents lists set s as (line, dirty) pairs, most recently used first,
// and an underscore per empty slot.
func (a *array) contents(s int) string {
	var b strings.Builder
	for _, w := range a.tags[s*a.ways : (s+1)*a.ways] {
		if w == 0 {
			b.WriteString("_")
		} else {
			fmt.Fprintf(&b, "(%#x %t)", slotLine(w), w&1 != 0)
		}
	}
	return b.String()
}

// contents lists set s as (line, dirty) pairs in descending stamp order,
// which is most recently used first, then an underscore per invalid slot:
// the layout the recency-ordered array must have.
func (a *refArray) contents(s int) string {
	var ways []int
	for i := s * a.ways; i < (s+1)*a.ways; i++ {
		if a.isValid(i) {
			ways = append(ways, i)
		}
	}
	sort.Slice(ways, func(x, y int) bool { return a.stamp[ways[x]] > a.stamp[ways[y]] })
	var b strings.Builder
	for _, i := range ways {
		fmt.Fprintf(&b, "(%#x %t)", a.tags[i], a.isDirty(i))
	}
	b.WriteString(strings.Repeat("_", a.ways-len(ways)))
	return b.String()
}

// TestArrayMatchesReference drives seeded random operation streams through
// both arrays on every shape, with and without a high line offset.
func TestArrayMatchesReference(t *testing.T) {
	for shape := range arrayShapes {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 1+3*3000)
			rng.Read(data)
			data[0] = byte(shape) | byte(seed%2)<<7
			matchReference(t, data)
		}
	}
}

// FuzzArrayMatchesReference lets the fuzzer choose the geometry, the line
// offset and the operation stream. The seed corpus covers every shape.
func FuzzArrayMatchesReference(f *testing.F) {
	for shape := range arrayShapes {
		rng := rand.New(rand.NewSource(int64(shape)))
		data := make([]byte, 1+3*200)
		rng.Read(data)
		data[0] = byte(shape)
		f.Add(data)
	}
	f.Fuzz(matchReference)
}
