package experiments

import "testing"

func TestE11LoadLatencyKnee(t *testing.T) {
	points := quickResults(t).Load
	if len(points) < 2 {
		t.Fatalf("points = %d", len(points))
	}
	light, heavy := points[0], points[len(points)-1]
	// Latency must grow with offered load on the tuned config, and the
	// optimized config must hold lower p99 at the heavy point.
	if heavy.TunedP99Ms <= light.TunedP99Ms {
		t.Fatalf("tuned p99 flat across load: %.2f → %.2f ms", light.TunedP99Ms, heavy.TunedP99Ms)
	}
	if heavy.OptP99Ms >= heavy.TunedP99Ms {
		t.Fatalf("optimized p99 (%.2f ms) should beat tuned (%.2f ms) at high load",
			heavy.OptP99Ms, heavy.TunedP99Ms)
	}
	// Below saturation both serve the offered load.
	if light.TunedTput <= 0 || light.OptTput <= 0 {
		t.Fatal("no throughput at light load")
	}
}

func TestE12NPSInteraction(t *testing.T) {
	results := quickResults(t).NPS
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	byKey := map[string]NPSResult{}
	for _, r := range results {
		byKey[r.Machine+"/"+r.Config] = r
	}
	// The NUMA-oblivious tuned deployment must not improve under NPS4
	// (its interleave now spans quadrants); the optimized plan must stay
	// within noise across NPS settings.
	tuned1 := byKey["rome-1s/tuned"].Throughput
	tuned4 := byKey["rome-1s-nps4/tuned"].Throughput
	if tuned4 > tuned1*1.03 {
		t.Fatalf("NUMA-oblivious tuned gained from NPS4: %.0f → %.0f", tuned1, tuned4)
	}
	opt1 := byKey["rome-1s/optimized"].Throughput
	opt4 := byKey["rome-1s-nps4/optimized"].Throughput
	ratio := opt4 / opt1
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("optimized should be NPS-insensitive: %.0f vs %.0f", opt1, opt4)
	}
}
