package desim

import (
	"math"
	"testing"
)

func TestRNGStreamIndependence(t *testing.T) {
	p := NewRNGPool(42)
	a := p.Stream("a")
	b := p.Stream("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 'a' and 'b' produced %d identical draws", same)
	}
}

func TestRNGStreamReproducible(t *testing.T) {
	x := NewRNGPool(7).Stream("svc").Int63()
	y := NewRNGPool(7).Stream("svc").Int63()
	if x != y {
		t.Fatalf("same pool+name diverged: %d vs %d", x, y)
	}
	z := NewRNGPool(8).Stream("svc").Int63()
	if x == z {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestExpMeanRoughlyCorrect(t *testing.T) {
	r := NewRNGPool(1).Stream("exp")
	const n = 20000
	mean := 10 * Millisecond
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	want := float64(mean)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("Exp sample mean = %v, want within 5%% of %v", Duration(got), mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	r := NewRNGPool(1).Stream("exp")
	if r.Exp(0) != 0 || r.Exp(-5) != 0 {
		t.Fatal("Exp of non-positive mean should be 0")
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNGPool(2).Stream("ln")
	const n = 20001
	samples := make([]Duration, n)
	for i := range samples {
		samples[i] = r.LogNormal(5*Millisecond, 0.5)
	}
	// Median check: count below the target median.
	below := 0
	for _, s := range samples {
		if s < 5*Millisecond {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("fraction below median = %.3f, want ~0.5", frac)
	}
}

func TestUniformBounds(t *testing.T) {
	r := NewRNGPool(3).Stream("u")
	for i := 0; i < 1000; i++ {
		d := r.Uniform(2*Millisecond, 4*Millisecond)
		if d < 2*Millisecond || d >= 4*Millisecond {
			t.Fatalf("Uniform out of range: %v", d)
		}
	}
	if r.Uniform(5, 5) != 5 {
		t.Fatal("degenerate Uniform should return lo")
	}
}
