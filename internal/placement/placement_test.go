package placement

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestNormalize(t *testing.T) {
	s := Shares{sim.WebUI: 2, sim.Auth: 2, sim.Image: -1}
	n := s.Normalize()
	if n[sim.WebUI] != 0.5 || n[sim.Auth] != 0.5 {
		t.Fatalf("normalize wrong: %v", n)
	}
	if _, ok := n[sim.Image]; ok {
		t.Fatal("negative share survived normalize")
	}
	if len(Shares{}.Normalize()) != 0 {
		t.Fatal("empty normalize should be empty")
	}
}

func TestOSDefaultValidates(t *testing.T) {
	mach := topology.Rome1S()
	d := OSDefault(mach)
	if err := d.Validate(mach); err != nil {
		t.Fatal(err)
	}
	for _, s := range sim.AllServices() {
		if d.Replicas(s) != 1 {
			t.Fatalf("os-default replicas of %v = %d, want 1", s, d.Replicas(s))
		}
	}
}

func TestTunedReplicasScaleWithShares(t *testing.T) {
	mach := topology.Rome1S()
	r := TunedReplicas(mach, DefaultShares(), 8)
	if r[sim.WebUI] < r[sim.Auth] {
		t.Fatalf("webui replicas (%d) should be ≥ auth (%d)", r[sim.WebUI], r[sim.Auth])
	}
	if r[sim.Registry] != 1 {
		t.Fatal("registry must have exactly 1 replica")
	}
	for s, n := range r {
		if n < 1 {
			t.Fatalf("service %v got %d replicas", s, n)
		}
	}
	d := Tuned(mach, DefaultShares(), 8)
	if err := d.Validate(mach); err != nil {
		t.Fatal(err)
	}
	// Tuned is unpinned.
	for _, inst := range d.Instances {
		if !inst.Affinity.Empty() {
			t.Fatal("tuned deployment must be unpinned")
		}
	}
}

func TestPackedPinsEverything(t *testing.T) {
	mach := topology.Rome1S()
	d := Packed(mach, DefaultShares(), 8)
	if err := d.Validate(mach); err != nil {
		t.Fatal(err)
	}
	var union topology.CPUSet
	for _, inst := range d.Instances {
		if inst.Affinity.Empty() {
			t.Fatalf("packed instance of %v unpinned", inst.Service)
		}
		if !inst.Affinity.Intersect(union).Empty() {
			t.Fatalf("packed affinities overlap at %v", inst.Service)
		}
		inst.Affinity.ForEach(union.Add)
		if inst.Workers <= 0 {
			t.Fatal("bad worker count")
		}
	}
	if union.Count() != mach.NumCPUs() {
		t.Fatalf("packed covers %d CPUs of %d", union.Count(), mach.NumCPUs())
	}
}

func TestCellsPerCCD(t *testing.T) {
	mach := topology.Rome1S() // 8 CCDs
	d, err := Cells(mach, DefaultShares(), CellPerCCD)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(mach); err != nil {
		t.Fatal(err)
	}
	// One replica of each non-registry service per CCD.
	for _, s := range []sim.Service{sim.WebUI, sim.Auth, sim.Persistence, sim.Recommender, sim.Image} {
		if got := d.Replicas(s); got != mach.NumCCDs() {
			t.Fatalf("%v replicas = %d, want %d (one per CCD)", s, got, mach.NumCCDs())
		}
	}
	if d.Replicas(sim.Registry) != 1 {
		t.Fatal("registry must have 1 replica")
	}
	// Each instance stays inside one CCD and homes its memory locally.
	for _, inst := range d.Instances {
		ccds := map[int]bool{}
		nodes := map[int]bool{}
		inst.Affinity.ForEach(func(id int) {
			ccds[mach.CPU(id).CCD] = true
			nodes[mach.CPU(id).NUMA] = true
		})
		if len(ccds) != 1 {
			t.Fatalf("%v instance spans %d CCDs", inst.Service, len(ccds))
		}
		for n := range nodes {
			if n != inst.HomeNUMA {
				t.Fatalf("%v instance homes on node %d but runs on node %d", inst.Service, inst.HomeNUMA, n)
			}
		}
	}
}

func TestCellsPerNUMAAndSocket(t *testing.T) {
	mach := topology.Rome1SNPS4()
	d, err := Cells(mach, DefaultShares(), CellPerNUMA)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(mach); err != nil {
		t.Fatal(err)
	}
	if d.Replicas(sim.WebUI) != 4 {
		t.Fatalf("NPS4 cells → 4 webui replicas, got %d", d.Replicas(sim.WebUI))
	}

	two := topology.Rome2S()
	d2, err := Cells(two, DefaultShares(), CellPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Replicas(sim.WebUI) != 2 {
		t.Fatalf("2-socket cells → 2 webui replicas, got %d", d2.Replicas(sim.WebUI))
	}
}

func TestCellsTooSmallFails(t *testing.T) {
	// 2-core CCDs cannot host 5 services.
	tiny := topology.MustNew(topology.Config{
		Name: "tiny", Sockets: 1, CCDsPerSocket: 2, CCXsPerCCD: 1,
		CoresPerCCX: 2, ThreadsPerCore: 2, NUMAPerSocket: 1,
		L3PerCCX: 16 << 20, BaseGHz: 2, BoostGHz: 3,
	})
	if _, err := Cells(tiny, DefaultShares(), CellPerCCD); err == nil {
		t.Fatal("undersized cells accepted")
	}
}

func TestApportion(t *testing.T) {
	got := apportion(10, []float64{5, 3, 2}, 1)
	if got[0]+got[1]+got[2] != 10 {
		t.Fatalf("apportion sum = %v", got)
	}
	if got[0] != 5 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("apportion = %v, want [5 3 2]", got)
	}
	// Minimum enforcement.
	got = apportion(5, []float64{100, 0.001, 0.001}, 1)
	if got[1] < 1 || got[2] < 1 {
		t.Fatalf("minimums violated: %v", got)
	}
	sum := got[0] + got[1] + got[2]
	if sum != 5 {
		t.Fatalf("apportion with minimums sum = %d", sum)
	}
	// Zero weight gets nothing.
	got = apportion(4, []float64{1, 0}, 1)
	if got[1] != 0 {
		t.Fatalf("zero weight received cores: %v", got)
	}
}

// Property: apportion conserves the total (when feasible) and respects
// minimums for positive weights.
func TestPropertyApportion(t *testing.T) {
	f := func(nRaw uint8, wRaw []uint8) bool {
		if len(wRaw) == 0 {
			return true
		}
		if len(wRaw) > 8 {
			wRaw = wRaw[:8]
		}
		weights := make([]float64, len(wRaw))
		positive := 0
		for i, w := range wRaw {
			weights[i] = float64(w)
			if w > 0 {
				positive++
			}
		}
		n := int(nRaw)%64 + positive // always feasible
		got := apportion(n, weights, 1)
		sum := 0
		for i, g := range got {
			if weights[i] > 0 && g < 1 {
				return false
			}
			if weights[i] == 0 && g != 0 {
				return false
			}
			sum += g
		}
		return positive == 0 || sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCellLevelString(t *testing.T) {
	if CellPerCCD.String() != "ccd" || CellPerNUMA.String() != "numa" || CellPerSocket.String() != "socket" {
		t.Fatal("cell level names wrong")
	}
	if CellLevel(9).String() == "" {
		t.Fatal("unknown level should still render")
	}
}

// The headline sanity: on the paper's machine, the cell deployment beats
// the tuned baseline in the simulator. Exact magnitudes are asserted by
// the E7 experiment; here we only require the direction.
func TestCellsBeatTunedDirectionally(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine simulation")
	}
	mach := topology.Rome1S()
	run := func(d sim.Deployment, nearest bool) float64 {
		res, err := sim.Run(sim.Config{
			Machine: mach, Deployment: d, Users: 15000, Seed: 11,
			Warmup: 2e9, Measure: 6e9, RouteNearest: nearest,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	tuned := run(Tuned(mach, DefaultShares(), 8), false)
	cells, err := Cells(mach, DefaultShares(), CellPerCCD)
	if err != nil {
		t.Fatal(err)
	}
	opt := run(cells, true)
	if opt <= tuned {
		t.Fatalf("cells (%.0f req/s) should beat tuned (%.0f req/s)", opt, tuned)
	}
}
