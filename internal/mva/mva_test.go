package mva

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// bound is the asymptotic throughput bound 1/max_k(D_k/m_k).
func bound(net Network) float64 {
	var maxD float64
	for _, s := range net.Stations {
		maxD = math.Max(maxD, s.Demand/float64(s.Servers))
	}
	return 1 / maxD
}

// solve returns the solutions at populations 1..n, failing t on an error.
func solve(t *testing.T, net Network, n int) []Result {
	t.Helper()
	all, err := SolveRange(net, n)
	if err != nil {
		t.Fatal(err)
	}
	return all
}

func TestValidate(t *testing.T) {
	bad := []Network{
		{},
		{ThinkTime: -1, Stations: []Station{{Demand: 1, Servers: 1}}},
		{Stations: []Station{{Demand: -1, Servers: 1}}},
		{Stations: []Station{{Demand: 1, Servers: 0}}},
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("bad network %d accepted", i)
		}
	}
	if _, err := SolveRange(Network{Stations: []Station{{Demand: 1, Servers: 1}}}, 0); err == nil {
		t.Error("zero population accepted")
	}
}

// Single M/M/1-like station with think time: compare against the known
// closed-form for N=1 and the asymptotes.
func TestSingleStationLimits(t *testing.T) {
	net := Network{
		ThinkTime: 1.0,
		Stations:  []Station{{Name: "cpu", Demand: 0.1, Servers: 1}},
	}
	all := solve(t, net, 200)
	one, big := all[0], all[199]
	// With one customer there is no queueing: X = 1/(Z+D).
	want := 1 / 1.1
	if math.Abs(one.Throughput-want) > 1e-9 {
		t.Fatalf("X(1) = %v, want %v", one.Throughput, want)
	}
	if math.Abs(one.ResponseTime-0.1) > 1e-9 {
		t.Fatalf("R(1) = %v, want 0.1", one.ResponseTime)
	}

	// Far past saturation: X → 1/D.
	if b := bound(net); math.Abs(big.Throughput-b)/b > 0.01 {
		t.Fatalf("X(200) = %v, want ≈%v", big.Throughput, b)
	}
	if big.Utilization[0] < 0.99 {
		t.Fatalf("bottleneck util = %v at N=200", big.Utilization[0])
	}
}

func TestBottleneckIdentification(t *testing.T) {
	net := Network{
		ThinkTime: 0.5,
		Stations: []Station{
			{Name: "fast", Demand: 0.01, Servers: 1},
			{Name: "slow", Demand: 0.05, Servers: 1},
			{Name: "wide", Demand: 0.08, Servers: 4}, // 0.02 per server
		},
	}
	all := solve(t, net, 100)
	res, below := all[99], all[1]
	if net.Stations[res.Bottleneck].Name != "slow" {
		t.Fatalf("bottleneck = %q, want slow", net.Stations[res.Bottleneck].Name)
	}
	// Below the knee N* = (Z+ΣD)/Dmax = 12.8, throughput ≈ N/(Z+ΣD).
	approx := 2 / (0.5 + 0.01 + 0.05 + 0.08)
	if math.Abs(below.Throughput-approx)/approx > 0.15 {
		t.Fatalf("light-load X = %v, want ≈%v", below.Throughput, approx)
	}
}

func TestMultiServerBeatsSingle(t *testing.T) {
	single := Network{ThinkTime: 0.2, Stations: []Station{{Demand: 0.1, Servers: 1}}}
	quad := Network{ThinkTime: 0.2, Stations: []Station{{Demand: 0.1, Servers: 4}}}
	xs := solve(t, single, 50)[49]
	xq := solve(t, quad, 50)[49]
	if xq.Throughput <= xs.Throughput {
		t.Fatalf("4 servers (%v) should beat 1 (%v)", xq.Throughput, xs.Throughput)
	}
	// At N=50 the single server is saturated, while four servers hold
	// more than the single server's bound.
	if b := bound(single); xq.Throughput <= b || math.Abs(xs.Throughput-b)/b > 0.01 {
		t.Fatalf("single %v, quad %v, single-server bound %v", xs.Throughput, xq.Throughput, b)
	}
}

func TestZeroDemandStationIgnored(t *testing.T) {
	net := Network{
		ThinkTime: 0.1,
		Stations: []Station{
			{Name: "real", Demand: 0.02, Servers: 1},
			{Name: "idle", Demand: 0, Servers: 1},
		},
	}
	res := solve(t, net, 10)[9]
	if res.StationQueue[1] != 0 || res.Utilization[1] != 0 {
		t.Fatal("zero-demand station accumulated load")
	}
}

// Property: throughput is non-decreasing in N and never exceeds both
// asymptotic bounds: N/(Z+ΣD) and 1/Dmax.
func TestPropertyMVABounds(t *testing.T) {
	f := func(dRaw [3]uint8, zRaw uint8, nRaw uint8) bool {
		net := Network{ThinkTime: float64(zRaw) / 100}
		var sum float64
		for i, d := range dRaw {
			demand := float64(d%50+1) / 1000
			net.Stations = append(net.Stations, Station{
				Name: string(rune('a' + i)), Demand: demand, Servers: i%3 + 1,
			})
			sum += demand
		}
		n := int(nRaw%50) + 1
		all, err := SolveRange(net, n)
		if err != nil {
			return false
		}
		prev := 0.0
		for i, res := range all {
			if res.Throughput < prev-1e-12 {
				return false
			}
			prev = res.Throughput
			bound1 := float64(i+1) / (net.ThinkTime + sum)
			if res.Throughput > bound1+1e-9 || res.Throughput > bound(net)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// SolveRange's solution at population i must not depend on how far past i
// the range runs: SolveRange(net, i) ends exactly where SolveRange(net,
// maxN) reads off population i.
func TestSolveRangePrefixStable(t *testing.T) {
	net := Network{
		ThinkTime: 0.010,
		Stations: []Station{
			{Name: "webui", Demand: 0.012, Servers: 6},
			{Name: "auth", Demand: 0.002, Servers: 64},
			{Name: "image", Demand: 0.004, Servers: 64},
		},
	}
	const maxN = 40
	all, err := SolveRange(net, maxN)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != maxN {
		t.Fatalf("SolveRange returned %d results, want %d", len(all), maxN)
	}
	for n := 1; n <= maxN; n++ {
		one := solve(t, net, n)[n-1]
		got := all[n-1]
		if got.Population != n {
			t.Fatalf("result %d has population %d", n-1, got.Population)
		}
		if got.Throughput != one.Throughput || got.ResponseTime != one.ResponseTime {
			t.Fatalf("n=%d: range (%v, %v) != solve (%v, %v)",
				n, got.Throughput, got.ResponseTime, one.Throughput, one.ResponseTime)
		}
		if got.Bottleneck != one.Bottleneck {
			t.Fatalf("n=%d: bottleneck %d != %d", n, got.Bottleneck, one.Bottleneck)
		}
	}
	if err := quickRangeErrors(); err != nil {
		t.Fatal(err)
	}
}

// quickRangeErrors checks SolveRange's error paths.
func quickRangeErrors() error {
	if _, err := SolveRange(Network{}, 5); err == nil {
		return fmt.Errorf("SolveRange accepted an empty network")
	}
	net := Network{Stations: []Station{{Name: "a", Demand: 0.01, Servers: 1}}}
	if _, err := SolveRange(net, 0); err == nil {
		return fmt.Errorf("SolveRange accepted population 0")
	}
	return nil
}
