package placement

import (
	"math"
	"slices"
	"testing"

	"repro/internal/topology"
)

// TestPredictSmallWebUI3 pins the real-stack placement prediction: the
// stack's boot order with webui×3 on the Small machine. These are the
// webui caps the live packed / ccx / numa stacks recorded, so Σ caps
// sets the throughput ratio: ccx above packed above numa.
func TestPredictSmallWebUI3(t *testing.T) {
	preds, err := Predict(topology.Small(), map[string]int{"webui": 3})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		caps  []int
		sum   int
		ratio float64
	}{
		"packed": {[]int{5, 3, 3}, 11, 1},
		"ccx":    {[]int{4, 5, 4}, 13, 13.0 / 11},
		"numa":   {[]int{3, 3, 3}, 9, 9.0 / 11},
	}
	if len(preds) != len(want) {
		t.Fatalf("%d predictions, want %d", len(preds), len(want))
	}
	sums := map[string]int{}
	for _, p := range preds {
		w, ok := want[p.Policy]
		if !ok {
			t.Fatalf("unexpected policy %q", p.Policy)
		}
		if len(p.Slots) != 7 || len(p.Caps) != 7 {
			t.Fatalf("%s: %d slots, %d caps, want 7 each", p.Policy, len(p.Slots), len(p.Caps))
		}
		var webui []int
		for i, s := range p.Slots {
			if s.Service == "webui" {
				webui = append(webui, p.Caps[i])
			}
		}
		if !slices.Equal(webui, w.caps) || p.Sum["webui"] != w.sum {
			t.Fatalf("%s webui caps %v (Σ %d), want %v (Σ %d)", p.Policy, webui, p.Sum["webui"], w.caps, w.sum)
		}
		if math.Abs(p.VsPacked["webui"]-w.ratio) > 1e-12 {
			t.Fatalf("%s webui ratio %.4f, want %.4f", p.Policy, p.VsPacked["webui"], w.ratio)
		}
		sums[p.Policy] = p.Sum["webui"]
	}
	if !(sums["ccx"] > sums["packed"] && sums["packed"] > sums["numa"]) {
		t.Fatalf("Σ caps ccx %d, packed %d, numa %d: want ccx > packed > numa", sums["ccx"], sums["packed"], sums["numa"])
	}
}

// TestPredictBootOrder: replicas are placed in boot order, each
// service's extras right after its first, one per service by default.
func TestPredictBootOrder(t *testing.T) {
	preds, err := Predict(topology.Small(), map[string]int{"auth": 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range preds[0].Slots {
		got = append(got, s.Service)
	}
	want := []string{"persistence", "auth", "auth", "recommender", "image", "webui"}
	if !slices.Equal(got, want) {
		t.Fatalf("placement order %v, want %v", got, want)
	}
	for _, bad := range []map[string]int{{"registry": 1}, {"webui": 0}} {
		if _, err := Predict(topology.Small(), bad); err == nil {
			t.Fatalf("Predict(%v) accepted", bad)
		}
	}
}
