// Package microarch models hardware performance-counter behaviour for the
// paper's final analysis: how microservice code differs from the workloads
// CPU designers usually optimize for (SPEC-like compute kernels).
//
// The model assigns each workload a counter profile — ideal IPC, frontend
// stall fraction, instruction footprint, cache MPKIs — and composes it
// with runtime cache/NUMA state to produce effective IPC and stall
// breakdowns. Profiles are calibrated to published characterizations:
// server microservices retire ≈0.5–1.0 IPC with 30–40 % frontend stalls
// and multi-MB instruction footprints, while SPEC-like kernels retire
// 1.5–2.5 IPC dominated by backend/compute.
package microarch

import (
	"sort"

	"repro/internal/sim"
)

// CounterProfile is one workload's intrinsic microarchitectural character.
type CounterProfile struct {
	Name string
	// IPCIdeal is retirement IPC with perfect caches and no stalls
	// beyond the pipeline's own limits.
	IPCIdeal float64
	// FrontendStallFrac is the fraction of cycles lost to instruction
	// fetch/decode (big code footprints, branchy control flow).
	FrontendStallFrac float64
	// MemStallWeight scales backend memory stalls (cf.
	// sim.ServiceProfile.MemWeight).
	MemStallWeight float64
	// ICacheMPKI / L3MPKI are misses per kilo-instruction at the
	// reference configuration.
	ICacheMPKI float64
	L3MPKI     float64
	// InstrFootprintKB is the active code footprint.
	InstrFootprintKB int
}

// EffectiveIPC composes the profile with runtime cache behaviour: the
// measured L3 miss ratio and the NUMA latency factor inflate backend
// stalls on top of the intrinsic frontend losses.
func (p CounterProfile) EffectiveIPC(l3MissRatio, latFactor float64) float64 {
	if l3MissRatio < 0 {
		l3MissRatio = 0
	}
	if l3MissRatio > 1 {
		l3MissRatio = 1
	}
	if latFactor < 1 {
		latFactor = 1
	}
	backend := p.MemStallWeight * l3MissRatio * latFactor
	denom := 1 + backend
	ipc := p.IPCIdeal * (1 - p.FrontendStallFrac) / denom
	if ipc < 0.05 {
		ipc = 0.05
	}
	return ipc
}

// ServiceProfiles returns the counter profiles of the TeaStore services,
// derived from the simulator's service profiles so the two models agree.
func ServiceProfiles() map[sim.Service]CounterProfile {
	sims := sim.DefaultProfiles()
	out := map[sim.Service]CounterProfile{}
	for svc, sp := range sims {
		out[svc] = CounterProfile{
			Name:              svc.String(),
			IPCIdeal:          1.6,
			FrontendStallFrac: sp.FrontendStall,
			MemStallWeight:    sp.MemWeight,
			ICacheMPKI:        8 + 60*sp.FrontendStall,
			L3MPKI:            1 + 9*sp.MemWeight,
			InstrFootprintKB:  512 + int(8192*sp.FrontendStall),
		}
	}
	return out
}

// SPECLikeProfiles returns the comparison set: synthetic stand-ins for the
// compute workloads processors are classically designed against.
func SPECLikeProfiles() []CounterProfile {
	return []CounterProfile{
		{
			Name: "spec-int-like", IPCIdeal: 2.4,
			FrontendStallFrac: 0.06, MemStallWeight: 0.15,
			ICacheMPKI: 1.2, L3MPKI: 0.8,
			InstrFootprintKB: 96,
		},
		{
			Name: "spec-fp-like", IPCIdeal: 2.8,
			FrontendStallFrac: 0.03, MemStallWeight: 0.35,
			ICacheMPKI: 0.4, L3MPKI: 2.5,
			InstrFootprintKB: 64,
		},
		{
			Name: "stream-like", IPCIdeal: 1.8,
			FrontendStallFrac: 0.02, MemStallWeight: 0.85,
			ICacheMPKI: 0.2, L3MPKI: 20.0,
			InstrFootprintKB: 32,
		},
	}
}

// Row is one workload's derived counters at an operating point.
type Row struct {
	Name             string
	EffectiveIPC     float64
	FrontendStallPct float64
	ICacheMPKI       float64
	L3MPKI           float64
	InstrFootprintKB int
}

// Compare derives counter rows for every TeaStore service and every
// SPEC-like workload at a common operating point (E9's table). The
// operating point is the L3 miss ratio and NUMA latency factor observed
// for the microservices; SPEC-like kernels use their intrinsic miss
// behaviour (their working sets are cache-resident by design, except
// stream).
func Compare(l3MissRatio, latFactor float64) []Row {
	var rows []Row
	svcProfiles := ServiceProfiles()
	var services []sim.Service
	for svc := range svcProfiles {
		services = append(services, svc)
	}
	sort.Slice(services, func(i, j int) bool { return services[i] < services[j] })
	for _, svc := range services {
		p := svcProfiles[svc]
		rows = append(rows, Row{
			Name:             "teastore-" + p.Name,
			EffectiveIPC:     p.EffectiveIPC(l3MissRatio, latFactor),
			FrontendStallPct: p.FrontendStallFrac * 100,
			ICacheMPKI:       p.ICacheMPKI,
			L3MPKI:           p.L3MPKI * l3MissRatio / 0.5, // scaled to observed pressure
			InstrFootprintKB: p.InstrFootprintKB,
		})
	}
	for _, p := range SPECLikeProfiles() {
		miss := 0.1
		if p.Name == "stream-like" {
			miss = 0.95
		}
		rows = append(rows, Row{
			Name:             p.Name,
			EffectiveIPC:     p.EffectiveIPC(miss, 1.0),
			FrontendStallPct: p.FrontendStallFrac * 100,
			ICacheMPKI:       p.ICacheMPKI,
			L3MPKI:           p.L3MPKI,
			InstrFootprintKB: p.InstrFootprintKB,
		})
	}
	return rows
}
