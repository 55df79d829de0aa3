package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultXeonShape(t *testing.T) {
	m := DefaultXeon()
	if err := m.Validate(); err != nil {
		t.Fatalf("default machine invalid: %v", err)
	}
	if got := m.NumContexts(); got != 32 {
		t.Errorf("NumContexts = %d, want 32", got)
	}
	if got := m.NumCores(); got != 16 {
		t.Errorf("NumCores = %d, want 16", got)
	}
	if got := m.NumNodes(); got != 2 {
		t.Errorf("NumNodes = %d, want 2", got)
	}
}

func TestDefaultXeonTableI(t *testing.T) {
	m := DefaultXeon()
	if m.L1.Size != 32*1024 {
		t.Errorf("L1 size = %d, want 32 KByte", m.L1.Size)
	}
	if m.L2.Size != 256*1024 {
		t.Errorf("L2 size = %d, want 256 KByte", m.L2.Size)
	}
	if m.L3.Size != 20*1024*1024 {
		t.Errorf("L3 size = %d, want 20 MByte", m.L3.Size)
	}
	if m.PageSize != 4096 {
		t.Errorf("page size = %d, want 4096", m.PageSize)
	}
	if m.ClockHz != 2.0e9 {
		t.Errorf("clock = %g, want 2.0 GHz", m.ClockHz)
	}
}

func TestContextNumberingRoundTrip(t *testing.T) {
	m := DefaultXeon()
	for s := 0; s < m.Sockets; s++ {
		for c := 0; c < m.CoresPerSocket; c++ {
			for k := 0; k < m.ThreadsPerCore; k++ {
				ctx := m.ContextOf(s, c, k)
				if m.SocketOf(ctx) != s {
					t.Fatalf("SocketOf(%d) = %d, want %d", ctx, m.SocketOf(ctx), s)
				}
				if m.CoreOf(ctx) != s*m.CoresPerSocket+c {
					t.Fatalf("CoreOf(%d) = %d, want %d", ctx, m.CoreOf(ctx), s*m.CoresPerSocket+c)
				}
				if m.SMTSlotOf(ctx) != k {
					t.Fatalf("SMTSlotOf(%d) = %d, want %d", ctx, m.SMTSlotOf(ctx), k)
				}
			}
		}
	}
}

func TestDistanceClasses(t *testing.T) {
	m := DefaultXeon()
	cases := []struct {
		a, b int
		want Level
	}{
		{0, 0, LevelSelf},
		{0, 1, LevelSMT},      // SMT siblings of core 0
		{0, 2, LevelSocket},   // core 0 vs core 1, socket 0
		{0, 15, LevelSocket},  // last context of socket 0
		{0, 16, LevelCross},   // first context of socket 1
		{15, 16, LevelCross},  // boundary
		{16, 17, LevelSMT},    // SMT siblings on socket 1
		{16, 31, LevelSocket}, // within socket 1
		{31, 0, LevelCross},   // symmetric cross
	}
	for _, c := range cases {
		if got := m.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	m := DefaultXeon()
	f := func(a, b uint8) bool {
		x := int(a) % m.NumContexts()
		y := int(b) % m.NumContexts()
		return m.Distance(x, y) == m.Distance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestC2CLatencyOrdering(t *testing.T) {
	m := DefaultXeon()
	smt := m.C2CLatency(0, 1)
	sock := m.C2CLatency(0, 2)
	cross := m.C2CLatency(0, 16)
	if !(smt < sock && sock < cross) {
		t.Errorf("C2C latencies not ordered: smt=%d socket=%d cross=%d", smt, sock, cross)
	}
}

func TestDRAMLatency(t *testing.T) {
	m := DefaultXeon()
	if m.DRAMLatency(0, 0) >= m.DRAMLatency(0, 1) {
		t.Errorf("local DRAM (%d) should be faster than remote (%d)",
			m.DRAMLatency(0, 0), m.DRAMLatency(0, 1))
	}
	if m.DRAMLatency(16, 1) != m.Lat.DRAMLocal {
		t.Errorf("context 16 is on node 1; access to node 1 should be local")
	}
}

func TestClustersPartition(t *testing.T) {
	m := DefaultXeon()
	for _, level := range []Level{LevelSMT, LevelSocket, LevelCross} {
		seen := make(map[int]bool)
		for _, cluster := range m.Clusters(level) {
			for _, ctx := range cluster {
				if seen[ctx] {
					t.Fatalf("level %v: context %d appears in two clusters", level, ctx)
				}
				seen[ctx] = true
			}
		}
		if len(seen) != m.NumContexts() {
			t.Errorf("level %v: clusters cover %d contexts, want %d", level, len(seen), m.NumContexts())
		}
	}
}

func TestClustersShareDomain(t *testing.T) {
	m := DefaultXeon()
	for _, cluster := range m.Clusters(LevelSMT) {
		for _, ctx := range cluster {
			if m.CoreOf(ctx) != m.CoreOf(cluster[0]) {
				t.Fatalf("SMT cluster %v spans cores", cluster)
			}
		}
	}
	for _, cluster := range m.Clusters(LevelSocket) {
		for _, ctx := range cluster {
			if m.SocketOf(ctx) != m.SocketOf(cluster[0]) {
				t.Fatalf("socket cluster spans sockets")
			}
		}
	}
}

func TestGroupSizes(t *testing.T) {
	m := DefaultXeon()
	got := m.GroupSizes()
	want := []int{2, 16, 32}
	if len(got) != len(want) {
		t.Fatalf("GroupSizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("GroupSizes[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8, 2); err == nil {
		t.Error("expected error for zero sockets")
	}
	if _, err := New(2, 0, 2); err == nil {
		t.Error("expected error for zero cores")
	}
	if _, err := New(2, 8, 0); err == nil {
		t.Error("expected error for zero SMT")
	}
	if m, err := New(1, 4, 1); err != nil || m.NumContexts() != 4 {
		t.Errorf("New(1,4,1) = %v, %v", m, err)
	}
}

// TestNewRejectsMachinesWiderThanDirectory: the directory's sharer bitsets
// hold MaxCores cores, so a 36-core shape must fail and a 32-core one pass.
func TestNewRejectsMachinesWiderThanDirectory(t *testing.T) {
	_, err := New(4, 9, 1)
	if err == nil {
		t.Fatal("New(4,9,1): 36 cores accepted")
	}
	if !strings.Contains(err.Error(), "32-core") {
		t.Errorf("New(4,9,1) error %q does not name the directory width", err)
	}
	if m, err := New(2, 16, 2); err != nil || m.NumCores() != MaxCores {
		t.Errorf("New(2,16,2) = %v, %v; want a valid %d-core machine", m, err, MaxCores)
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	m := DefaultXeon()
	m.LineSize = 65
	if err := m.Validate(); err == nil {
		t.Error("expected error for non-power-of-two line size")
	}
	m = DefaultXeon()
	m.PageSize = 32 // smaller than line size
	if err := m.Validate(); err == nil {
		t.Error("expected error for page smaller than line")
	}
	m = DefaultXeon()
	m.ClockHz = 0
	if err := m.Validate(); err == nil {
		t.Error("expected error for zero clock")
	}
	m = DefaultXeon()
	m.L2.Assoc = 0
	if err := m.Validate(); err == nil {
		t.Error("expected error for zero associativity")
	}
}

func TestCycleConversionRoundTrip(t *testing.T) {
	m := DefaultXeon()
	sec := m.CyclesToSeconds(2_000_000_000)
	if sec != 1.0 {
		t.Errorf("2e9 cycles at 2 GHz = %g s, want 1", sec)
	}
	if got := m.SecondsToCycles(0.5); got != 1_000_000_000 {
		t.Errorf("0.5 s = %d cycles, want 1e9", got)
	}
}

func TestLevelString(t *testing.T) {
	if LevelSMT.String() != "smt" || LevelSocket.String() != "socket" ||
		LevelCross.String() != "cross" || LevelSelf.String() != "self" {
		t.Error("unexpected Level string values")
	}
	if Level(42).String() == "" {
		t.Error("unknown level should still produce a string")
	}
}
