package microarch

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestServiceProfilesCoverAllServices(t *testing.T) {
	profiles := ServiceProfiles()
	if len(profiles) != sim.NumServices {
		t.Fatalf("profiles for %d services, want %d", len(profiles), sim.NumServices)
	}
	for svc, p := range profiles {
		if p.Name != svc.String() {
			t.Errorf("profile for %v named %q", svc, p.Name)
		}
		if p.IPCIdeal <= 0 || p.FrontendStallFrac < 0 || p.FrontendStallFrac >= 1 {
			t.Errorf("%v profile non-physical: %+v", svc, p)
		}
	}
}

func TestEffectiveIPCBehaviour(t *testing.T) {
	p := CounterProfile{IPCIdeal: 2.0, FrontendStallFrac: 0.2, MemStallWeight: 0.5}
	base := p.EffectiveIPC(0, 1)
	if base >= 2.0 {
		t.Fatal("frontend stalls must cost IPC")
	}
	missy := p.EffectiveIPC(0.8, 1)
	if missy >= base {
		t.Fatal("misses must cost IPC")
	}
	remote := p.EffectiveIPC(0.8, 3.2)
	if remote >= missy {
		t.Fatal("remote memory must cost IPC")
	}
	// Clamps.
	if p.EffectiveIPC(-1, 0) != base {
		t.Fatal("clamping wrong")
	}
	if floor := (CounterProfile{IPCIdeal: 0.1, FrontendStallFrac: 0.9, MemStallWeight: 5}).EffectiveIPC(1, 3.2); floor < 0.05 {
		t.Fatalf("IPC floor violated: %v", floor)
	}
}

// The paper's headline contrast: microservices retire fewer instructions
// per cycle, stall more in the frontend, and carry far bigger instruction
// footprints than SPEC-like compute.
func TestMicroservicesDistinctFromSPEC(t *testing.T) {
	rows := Compare(0.5, 1.2)
	var microIPC, specIPC []float64
	var microFE, specFE []float64
	var microIFoot, specIFoot []int
	for _, r := range rows {
		if strings.HasPrefix(r.Name, "teastore-") {
			microIPC = append(microIPC, r.EffectiveIPC)
			microFE = append(microFE, r.FrontendStallPct)
			microIFoot = append(microIFoot, r.InstrFootprintKB)
		} else if r.Name != "stream-like" { // stream is the memory-bound outlier
			specIPC = append(specIPC, r.EffectiveIPC)
			specFE = append(specFE, r.FrontendStallPct)
			specIFoot = append(specIFoot, r.InstrFootprintKB)
		}
	}
	if len(microIPC) != sim.NumServices || len(specIPC) == 0 {
		t.Fatalf("row partition wrong: %d micro, %d spec", len(microIPC), len(specIPC))
	}
	if maxF(microIPC) >= minF(specIPC) {
		t.Fatalf("every microservice should retire below SPEC-like IPC: micro max %.2f, spec min %.2f",
			maxF(microIPC), minF(specIPC))
	}
	if minF(microFE) <= maxF(specFE) {
		t.Fatalf("microservice frontend stalls should exceed SPEC-like: micro min %.1f%%, spec max %.1f%%",
			minF(microFE), maxF(specFE))
	}
	if minI(microIFoot) <= maxI(specIFoot) {
		t.Fatal("microservice instruction footprints should dwarf SPEC-like")
	}
}

// Property: effective IPC is monotone non-increasing in miss ratio and
// latency factor, and always within (0, IPCIdeal].
func TestPropertyIPCMonotone(t *testing.T) {
	p := ServiceProfiles()[sim.WebUI]
	f := func(m1, m2, l1, l2 uint8) bool {
		miss1 := float64(m1) / 255
		miss2 := float64(m2) / 255
		lat1 := 1 + float64(l1)/64
		lat2 := 1 + float64(l2)/64
		if miss1 > miss2 {
			miss1, miss2 = miss2, miss1
		}
		if lat1 > lat2 {
			lat1, lat2 = lat2, lat1
		}
		hi := p.EffectiveIPC(miss1, lat1)
		lo := p.EffectiveIPC(miss2, lat2)
		return lo <= hi+1e-12 && hi <= p.IPCIdeal && lo > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func maxF(xs []float64) float64 {
	out := xs[0]
	for _, x := range xs {
		if x > out {
			out = x
		}
	}
	return out
}

func minF(xs []float64) float64 {
	out := xs[0]
	for _, x := range xs {
		if x < out {
			out = x
		}
	}
	return out
}

func maxI(xs []int) int {
	out := xs[0]
	for _, x := range xs {
		if x > out {
			out = x
		}
	}
	return out
}

func minI(xs []int) int {
	out := xs[0]
	for _, x := range xs {
		if x < out {
			out = x
		}
	}
	return out
}
