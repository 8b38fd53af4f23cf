package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// The reported tail is the highest percentile up to p99 that still has ten
// samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0.5}, {20, 0.5}, {100, 0.9}, {480, 1 - 10.0/480}, {1000, 0.99}, {50000, 0.99},
	} {
		got := supportedTail(c.n)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n > 2*tailBeyond {
			if beyond := float64(c.n) * (1 - got); beyond < tailBeyond-1e-9 {
				t.Errorf("supportedTail(%d) leaves %.2f samples beyond, want ≥ %d", c.n, beyond, tailBeyond)
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
