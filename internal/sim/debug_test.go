package sim

import (
	"testing"

	"repro/internal/desim"
	"repro/internal/topology"
)

func TestClientLatencyAddsToResponseTime(t *testing.T) {
	slow := smallConfig(20, 5)
	slow.ClientLatency = 20 * desim.Millisecond
	fast := smallConfig(20, 5)
	fast.ClientLatency = desim.Millisecond

	slowRes, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	fastRes, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	// Two extra ~19ms network legs must be visible in the median.
	gap := slowRes.Latency.P50 - fastRes.Latency.P50
	if gap < int64(30*desim.Millisecond) {
		t.Fatalf("client latency not reflected: gap %.1fms", float64(gap)/1e6)
	}
}

func TestPerRequestHistogramsPopulated(t *testing.T) {
	res, err := Run(smallConfig(60, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRequest) < 4 {
		t.Fatalf("only %d request types measured", len(res.PerRequest))
	}
	var total int64
	for _, snap := range res.PerRequest {
		total += snap.Count
	}
	if total != res.Latency.Count {
		t.Fatalf("per-request counts (%d) don't sum to total (%d)", total, res.Latency.Count)
	}
}

func TestRouteNearestPrefersCellMates(t *testing.T) {
	// Two-cell deployment on the small machine: webui of CCX0 should send
	// its persistence ops to the CCX0 persistence replica under nearest
	// routing. We detect this via per-instance served counts: with
	// round-robin the split is even regardless of caller; with nearest it
	// stays even too (symmetric cells) — so instead compare throughput:
	// nearest routing on a cross-socket machine must not be slower.
	mach := topology.Rome2S()
	d := Deployment{Name: "two-cell"}
	for cell := 0; cell < 2; cell++ {
		set := mach.CPUsOfSocket(cell)
		for _, s := range []Service{WebUI, Auth, Persistence, Recommender, Image} {
			d.Instances = append(d.Instances, InstanceSpec{
				Service: s, Affinity: topology.NewCPUSet(set.IDs()[:32]...), Workers: 64, HomeNUMA: cell,
			})
		}
	}
	d.Instances = append(d.Instances, InstanceSpec{
		Service: Registry, Affinity: topology.NewCPUSet(0, 128), Workers: 4, HomeNUMA: 0,
	})
	run := func(nearest bool) Result {
		res, err := Run(Config{
			Machine: mach, Deployment: d, Users: 2500, Seed: 3,
			Warmup: desim.Second, Measure: 4 * desim.Second, RouteNearest: nearest,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rr := run(false)
	nearest := run(true)
	if nearest.Latency.P50 > rr.Latency.P50 {
		t.Fatalf("nearest routing slower at median: %.2fms vs %.2fms",
			float64(nearest.Latency.P50)/1e6, float64(rr.Latency.P50)/1e6)
	}
}
