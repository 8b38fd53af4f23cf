package topology

import (
	"testing"
	"testing/quick"
)

func TestRome1SShape(t *testing.T) {
	m := Rome1S()
	if got := m.NumCPUs(); got != 128 {
		t.Fatalf("NumCPUs = %d, want 128 (the paper's per-socket count)", got)
	}
	if got := m.NumCores(); got != 64 {
		t.Fatalf("NumCores = %d, want 64", got)
	}
	if got := m.NumCCXs(); got != 16 {
		t.Fatalf("NumCCXs = %d, want 16", got)
	}
	if got := m.NumCCDs(); got != 8 {
		t.Fatalf("NumCCDs = %d, want 8", got)
	}
	if got := m.NumNUMA(); got != 1 {
		t.Fatalf("NumNUMA = %d, want 1 under NPS1", got)
	}
}

func TestRome2SShape(t *testing.T) {
	m := Rome2S()
	if got := m.NumCPUs(); got != 256 {
		t.Fatalf("NumCPUs = %d, want 256", got)
	}
	if got := m.NumSockets(); got != 2 {
		t.Fatalf("NumSockets = %d, want 2", got)
	}
}

func TestNPS4Shape(t *testing.T) {
	m := Rome1SNPS4()
	if got := m.NumNUMA(); got != 4 {
		t.Fatalf("NumNUMA = %d, want 4 under NPS4", got)
	}
	// Each quadrant holds 2 CCDs = 16 cores = 32 logical CPUs.
	if got := m.CPUsOfNUMA(0).Count(); got != 32 {
		t.Fatalf("CPUs per NPS4 node = %d, want 32", got)
	}
}

func TestSMTSiblingNumbering(t *testing.T) {
	m := Rome1S()
	// Linux convention: CPU i and CPU i+nCores are SMT siblings.
	for core := 0; core < m.NumCores(); core++ {
		sib := m.CoreSiblings(core)
		if len(sib) != 2 {
			t.Fatalf("core %d has %d siblings, want 2", core, len(sib))
		}
		if sib[1]-sib[0] != m.NumCores() {
			t.Fatalf("core %d siblings %v not offset by nCores", core, sib)
		}
	}
}

func TestRelationLevels(t *testing.T) {
	m := Rome2S()
	cases := []struct {
		a, b int
		want Level
	}{
		{0, 0, LevelThread},
		{0, 128, LevelCore},   // SMT sibling: 128 cores total in 2S
		{0, 1, LevelCCX},      // next core, same 4-core CCX
		{0, 4, LevelCCD},      // second CCX of CCD 0
		{0, 8, LevelNUMA},     // CCD 1, same socket-node
		{0, 64, LevelMachine}, // other socket
	}
	for _, c := range cases {
		if got := m.Relation(c.a, c.b); got != c.want {
			t.Errorf("Relation(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRelationSocketLevelUnderNPS4(t *testing.T) {
	m := Rome1SNPS4()
	// CPU 0 is in quadrant 0; core 16 (CCD 2) is quadrant 1 — same socket,
	// different NUMA node.
	if got := m.Relation(0, 16); got != LevelSocket {
		t.Fatalf("Relation across NPS4 quadrants = %v, want socket", got)
	}
}

func TestNUMADistances(t *testing.T) {
	m := Rome2S()
	if d := m.NUMADistance(0, 0); d != 10 {
		t.Fatalf("local distance = %d, want 10", d)
	}
	if d := m.NUMADistance(0, 1); d != 32 {
		t.Fatalf("cross-socket distance = %d, want 32", d)
	}
	n4 := Rome1SNPS4()
	if d := n4.NUMADistance(0, 3); d != 12 {
		t.Fatalf("same-socket NPS4 distance = %d, want 12", d)
	}
	// Symmetry.
	for a := 0; a < n4.NumNUMA(); a++ {
		for b := 0; b < n4.NumNUMA(); b++ {
			if n4.NUMADistance(a, b) != n4.NUMADistance(b, a) {
				t.Fatalf("distance asymmetric at (%d,%d)", a, b)
			}
		}
	}
}

func TestCPUPartitioning(t *testing.T) {
	for _, m := range []*Machine{Rome1S(), Rome2S(), Rome1SNPS4(), Small()} {
		// Every CPU appears in exactly one CCX set; CCX sets partition.
		var union CPUSet
		total := 0
		for x := 0; x < m.NumCCXs(); x++ {
			set := m.CPUsOfCCX(x)
			if !set.Intersect(union).Empty() {
				t.Fatalf("%s: CCX %d overlaps earlier CCXs", m.Name(), x)
			}
			set.ForEach(union.Add)
			total += set.Count()
		}
		if total != m.NumCPUs() || union.Count() != m.NumCPUs() {
			t.Fatalf("%s: CCX sets do not partition CPUs (total=%d)", m.Name(), total)
		}
		for id := 0; id < m.NumCPUs(); id++ {
			if !union.Contains(id) {
				t.Fatalf("%s: CPU %d is in no CCX", m.Name(), id)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := RomeSocketConfig(); c.ThreadsPerCore = 3; return c }(),
		func() Config { c := RomeSocketConfig(); c.NUMAPerSocket = 3; return c }(), // 8 % 3 != 0
		func() Config { c := RomeSocketConfig(); c.BoostGHz = 1.0; return c }(),
		func() Config { c := RomeSocketConfig(); c.L3PerCCX = 0; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(RomeSocketConfig()); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestDescribeAndString(t *testing.T) {
	m := Small()
	if s := m.String(); s == "" {
		t.Fatal("String empty")
	}
	d := m.Describe()
	if d == "" {
		t.Fatal("Describe empty")
	}
}

// Property: Relation is symmetric and Relation(a,a) == LevelThread.
func TestPropertyRelationSymmetric(t *testing.T) {
	m := Rome2S()
	f := func(ra, rb uint16) bool {
		a := int(ra) % m.NumCPUs()
		b := int(rb) % m.NumCPUs()
		if m.Relation(a, b) != m.Relation(b, a) {
			return false
		}
		return m.Relation(a, a) == LevelThread
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: containment hierarchy is consistent — same CCX implies same
// CCD, same CCD implies same NUMA, same NUMA implies same socket.
func TestPropertyContainment(t *testing.T) {
	for _, m := range []*Machine{Rome2S(), Rome1SNPS4(), MustNew(MonolithicConfig(28))} {
		f := func(ra, rb uint16) bool {
			a := m.CPU(int(ra) % m.NumCPUs())
			b := m.CPU(int(rb) % m.NumCPUs())
			if a.Core == b.Core && a.CCX != b.CCX {
				return false
			}
			if a.CCX == b.CCX && a.CCD != b.CCD {
				return false
			}
			if a.CCD == b.CCD && a.NUMA != b.NUMA {
				return false
			}
			if a.NUMA == b.NUMA && a.Socket != b.Socket {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
}
