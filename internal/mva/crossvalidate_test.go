package mva

import (
	"math"
	"testing"

	"repro/internal/desim"
	"repro/internal/memmodel"
	"repro/internal/sim"
	"repro/internal/simcpu"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestSimulatorMatchesMVA cross-validates the discrete-event simulator
// against exact Mean Value Analysis on a configuration where the
// simulator's non-product-form mechanisms are switched off: no SMT
// contention, no boost, no cache/NUMA CPI, no serialization locks, no
// RPC cost, disjoint per-service CPU allotments, and a single-request
// sequential workload. On such a network the two models must agree.
func TestSimulatorMatchesMVA(t *testing.T) {
	// Machine: one socket, 16 cores, no SMT.
	mach := topology.MustNew(topology.Config{
		Name: "flat16", Sockets: 1, CCDsPerSocket: 1, CCXsPerCCD: 4,
		CoresPerCCX: 4, ThreadsPerCore: 1, NUMAPerSocket: 1,
		L3PerCCX: 16 << 20, BaseGHz: 2, BoostGHz: 2,
	})

	// Neutral hardware models.
	cpu := simcpu.Params{SMTFactor: 1.0, BoostEnabled: false}
	mem := memmodel.Params{BaseMissRatio: 0, MaxMissRatio: 0, LocalLatencyNs: 1}
	var net simnet.Params // all-zero latencies and CPU costs are valid
	net.CrossSocketCPUFactor = 1

	// Neutral service profiles: no locks, no memory sensitivity, fixed
	// (zero-variance) demands. Exponential-service exactness is not
	// needed for the operating points we compare (see below).
	profiles := map[sim.Service]sim.ServiceProfile{}
	for _, svc := range sim.AllServices() {
		profiles[svc] = sim.ServiceProfile{WSBytes: 1 << 20, DemandSigma: 0.0001}
	}

	// One request type visiting webui (pre+post), auth, persistence
	// sequentially.
	const (
		webuiDemand = 3 * desim.Millisecond // pre 2 + post 1
		authDemand  = 1 * desim.Millisecond
		persDemand  = 2 * desim.Millisecond
	)
	specs := map[workload.Request]sim.RequestSpec{}
	for _, r := range workload.AllRequests() {
		specs[r] = sim.RequestSpec{
			Type: r,
			Pre:  2 * desim.Millisecond,
			Post: 1 * desim.Millisecond,
			Sequential: []sim.Op{
				{Target: sim.Auth, Demand: desim.Duration(authDemand)},
				{Target: sim.Persistence, Demand: desim.Duration(persDemand)},
			},
		}
	}

	// Single-request sessions with deterministic-ish think time.
	profile := &workload.Profile{
		Name:  "mva",
		Start: workload.ReqHome,
		Transitions: map[workload.Request][]workload.Edge{
			workload.ReqHome: {{To: workload.Done, P: 1}},
		},
		ThinkMedian: 200e6, // 200 ms
		ThinkSigma:  0.0001,
	}

	// Disjoint allotments: webui 8 cores, auth 4, persistence 4.
	d := sim.Deployment{Name: "mva"}
	take := func(svc sim.Service, cores []int, workers int) {
		var set topology.CPUSet
		for _, c := range cores {
			for _, id := range mach.CoreSiblings(c) {
				set.Add(id)
			}
		}
		d.Instances = append(d.Instances, sim.InstanceSpec{
			Service: svc, Affinity: set, Workers: workers, HomeNUMA: 0,
		})
	}
	take(sim.WebUI, []int{0, 1, 2, 3, 4, 5, 6, 7}, 512)
	take(sim.Auth, []int{8, 9, 10, 11}, 512)
	take(sim.Persistence, []int{12, 13, 14, 15}, 512)
	// Unused services: parked on core 15 with no traffic.
	take(sim.Recommender, []int{15}, 4)
	take(sim.Image, []int{15}, 4)
	take(sim.Registry, []int{15}, 4)

	runSim := func(users int) sim.Result {
		res, err := sim.Run(sim.Config{
			Machine: mach, Deployment: d, Workload: profile,
			Users: users, Seed: 3,
			Warmup: 5 * desim.Second, Measure: 20 * desim.Second,
			ClientLatency: 1, // effectively zero
			CPU:           cpu, Mem: mem, Net: net,
			Profiles: profiles, Requests: specs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	network := Network{
		// Each single-request session pays two think gaps: after the
		// response and between sessions. Z = 2 × 200 ms.
		ThinkTime: 0.400,
		Stations: []Station{
			{Name: "webui", Demand: float64(webuiDemand) / 1e9, Servers: 8},
			{Name: "auth", Demand: float64(authDemand) / 1e9, Servers: 4},
			{Name: "pers", Demand: float64(persDemand) / 1e9, Servers: 4},
		},
	}

	// Light load: no queueing anywhere, X = N/(Z+ΣD) in both models.
	for _, users := range []int{10, 50} {
		simRes := runSim(users)
		mvaRes := solve(t, network, users)[users-1]
		rel := math.Abs(simRes.Throughput-mvaRes.Throughput) / mvaRes.Throughput
		if rel > 0.05 {
			t.Fatalf("N=%d: sim %.1f req/s vs MVA %.1f req/s (%.1f %% apart)",
				users, simRes.Throughput, mvaRes.Throughput, rel*100)
		}
	}

	// Saturation: both models must converge on the bottleneck bound
	// 1/max(D/m) = 4 servers / 2 ms = 2000 req/s.
	simSat := runSim(1500)
	b := bound(network)
	rel := math.Abs(simSat.Throughput-b) / b
	if rel > 0.07 {
		t.Fatalf("saturation: sim %.1f req/s vs bound %.1f req/s (%.1f %% apart)",
			simSat.Throughput, b, rel*100)
	}
	// And the bottleneck station must be persistence in both views.
	mvaSat := solve(t, network, 1500)[1499]
	if network.Stations[mvaSat.Bottleneck].Name != "pers" {
		t.Fatalf("MVA bottleneck = %q", network.Stations[mvaSat.Bottleneck].Name)
	}
	persBusy := simResBusy(simSat, sim.Persistence)
	if persBusy < 3.7 { // of 4 cores
		t.Fatalf("sim persistence busy-cores = %.2f, want ≈4 at saturation", persBusy)
	}
}

func simResBusy(res sim.Result, svc sim.Service) float64 {
	return res.ServiceStat(svc).BusyCores
}
