package memmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func newModel(t *testing.T, mach *topology.Machine) *Model {
	t.Helper()
	m, err := New(mach, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFittingWorkingSetPaysBaseMiss(t *testing.T) {
	mach := topology.Small() // 16 MiB per CCX
	m := newModel(t, mach)
	r, err := m.AddRegion(8<<20, 0, mach.CPUsOfCCX(0))
	if err != nil {
		t.Fatal(err)
	}
	miss := m.MissRatio(r, 0)
	if math.Abs(miss-DefaultParams().BaseMissRatio) > 1e-9 {
		t.Fatalf("fitting WS miss = %v, want base %v", miss, DefaultParams().BaseMissRatio)
	}
}

func TestOversubscriptionRaisesMiss(t *testing.T) {
	mach := topology.Small()
	m := newModel(t, mach)
	r1, _ := m.AddRegion(16<<20, 0, mach.CPUsOfCCX(0))
	missAlone := m.MissRatio(r1, 0)
	// A second 16 MiB region on the same CCX halves r1's share.
	if _, err := m.AddRegion(16<<20, 0, mach.CPUsOfCCX(0)); err != nil {
		t.Fatal(err)
	}
	missShared := m.MissRatio(r1, 0)
	if missShared <= missAlone {
		t.Fatalf("sharing should raise miss: alone %v, shared %v", missAlone, missShared)
	}
	// Fair-share: r1 gets 8 of 16 MiB → fit 0.5 → miss = base + (max-base)/2.
	p := DefaultParams()
	want := p.BaseMissRatio + (p.MaxMissRatio-p.BaseMissRatio)*0.5
	if math.Abs(missShared-want) > 1e-9 {
		t.Fatalf("shared miss = %v, want %v", missShared, want)
	}
}

func TestSpreadAffinityDilutesCacheUnderContention(t *testing.T) {
	mach := topology.Small() // 2 CCXs of 16 MiB
	m := newModel(t, mach)
	// Uncontended: a 20 MiB working set keeps min(WS, L3) warm wherever
	// it runs — spreading alone costs nothing beyond the >L3 footprint.
	spread, _ := m.AddRegion(20<<20, 0, topology.CPUSet{})
	if got := m.Occupancy(0); math.Abs(got-10<<20) > 1 {
		t.Fatalf("occupancy = %v, want 10 MiB", got)
	}
	p := DefaultParams()
	wantFit := 16.0 / 20.0
	wantMiss := p.BaseMissRatio + (p.MaxMissRatio-p.BaseMissRatio)*(1-wantFit)
	if got := m.MissRatio(spread, 0); math.Abs(got-wantMiss) > 1e-9 {
		t.Fatalf("uncontended spread miss = %v, want %v", got, wantMiss)
	}

	// Under contention, the spread instance's fair share shrinks with its
	// diluted pressure while a pinned competitor keeps most of the slice:
	// isolation (pinning) beats spreading.
	m2 := newModel(t, mach)
	spread2, _ := m2.AddRegion(20<<20, 0, topology.CPUSet{}) // 10 MiB pressure per CCX
	pinned, _ := m2.AddRegion(20<<20, 0, mach.CPUsOfCCX(0))  // 20 MiB pressure on CCX 0
	missSpread := m2.MissRatio(spread2, 0)                   // share = 16·10/30
	missPinned := m2.MissRatio(pinned, 0)                    // share = 16·20/30
	if missPinned >= missSpread {
		t.Fatalf("pinned (%v) should miss less than spread (%v) under contention", missPinned, missSpread)
	}
}

func TestExecutingOffResidencyMissesMax(t *testing.T) {
	mach := topology.Small()
	m := newModel(t, mach)
	r, _ := m.AddRegion(8<<20, 0, mach.CPUsOfCCX(0))
	if miss := m.MissRatio(r, 1); miss != DefaultParams().MaxMissRatio {
		t.Fatalf("off-residency miss = %v, want max", miss)
	}
}

func TestCPIFactorsCompose(t *testing.T) {
	mach := topology.Rome2S()
	m := newModel(t, mach)
	// Home on node 0 (socket 0), fits its CCX.
	r, _ := m.AddRegion(8<<20, 0, mach.CPUsOfCCX(0))
	p := DefaultParams()

	cpuLocal := mach.CPUsOfCCX(0).IDs()[0]
	local := m.CPI(r, cpuLocal, 0.5)
	wantLocal := 1 + 0.5*p.BaseMissRatio*1.0
	if math.Abs(local-wantLocal) > 1e-9 {
		t.Fatalf("local CPI = %v, want %v", local, wantLocal)
	}

	// Same working set executing from socket 1: max miss × 3.2 latency.
	cpuRemote := mach.CPUsOfSocket(1).IDs()[0]
	remote := m.CPI(r, cpuRemote, 0.5)
	wantRemote := 1 + 0.5*p.MaxMissRatio*3.2
	if math.Abs(remote-wantRemote) > 1e-9 {
		t.Fatalf("remote CPI = %v, want %v", remote, wantRemote)
	}
	if remote <= local {
		t.Fatal("remote execution must cost more")
	}
}

func TestAddRegionValidation(t *testing.T) {
	mach := topology.Small()
	m := newModel(t, mach)
	if _, err := m.AddRegion(-1, 0, topology.CPUSet{}); err == nil {
		t.Fatal("negative WS accepted")
	}
	if _, err := m.AddRegion(1, 99, topology.CPUSet{}); err == nil {
		t.Fatal("bad home node accepted")
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{BaseMissRatio: -0.1, MaxMissRatio: 0.8, LocalLatencyNs: 100},
		{BaseMissRatio: 0.5, MaxMissRatio: 0.4, LocalLatencyNs: 100},
		{BaseMissRatio: 0.1, MaxMissRatio: 0.8, LocalLatencyNs: 0},
	}
	for i, p := range bad {
		if _, err := New(topology.Small(), p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

// Property: CPI is always ≥ 1 and bounded by 1 + w·maxMiss·maxLatFactor;
// miss ratios stay in [base, max].
func TestPropertyCPIBounds(t *testing.T) {
	mach := topology.Rome2S()
	m := newModel(t, mach)
	regions := []*Region{}
	for ccx := 0; ccx < 8; ccx++ {
		r, err := m.AddRegion(int64(ccx)*(8<<20), ccx%mach.NumNUMA(), mach.CPUsOfCCX(ccx))
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	p := DefaultParams()
	maxLat := 3.2
	f := func(ri uint8, cpuRaw uint16, wRaw uint8) bool {
		r := regions[int(ri)%len(regions)]
		cpu := int(cpuRaw) % mach.NumCPUs()
		w := float64(wRaw%101) / 100
		cpi := m.CPI(r, cpu, w)
		if cpi < 1 || cpi > 1+w*p.MaxMissRatio*maxLat+1e-9 {
			return false
		}
		miss := m.MissRatio(r, mach.CPU(cpu).CCX)
		return miss >= p.BaseMissRatio-1e-9 && miss <= p.MaxMissRatio+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
