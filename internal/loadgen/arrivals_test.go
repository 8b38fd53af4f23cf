package loadgen

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// gaps runs a schedule to completion and returns the interarrival gaps in
// seconds.
func gaps(t *testing.T, rate float64, dur time.Duration, shape RateShape, proc ArrivalProcess, seed int64) []float64 {
	t.Helper()
	sched := NewSchedule(rate, dur, shape, proc, rand.New(rand.NewSource(seed)))
	var offs []float64
	for {
		off, ok := sched.Next()
		if !ok {
			break
		}
		offs = append(offs, off.Seconds())
	}
	if len(offs) < 100 {
		t.Fatalf("schedule produced only %d arrivals", len(offs))
	}
	out := make([]float64, 0, len(offs)-1)
	for i := 1; i < len(offs); i++ {
		out = append(out, offs[i]-offs[i-1])
	}
	return out
}

func cv(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// A Poisson process has exponential interarrivals: CV ≈ 1. This is the
// property that distinguishes it from both deterministic pacing (CV 0)
// and bursty traffic (CV > 1).
func TestPoissonInterarrivalCV(t *testing.T) {
	g := gaps(t, 1000, 20*time.Second, steadyShape{}, poisson{}, 7)
	if c := cv(g); c < 0.9 || c > 1.1 {
		t.Fatalf("poisson interarrival CV = %.3f, want ≈1 (exponential gaps)", c)
	}
}

// The MMPP on-off process must be overdispersed relative to Poisson —
// that burstiness is its entire reason to exist.
func TestMMPPInterarrivalCVExceedsPoisson(t *testing.T) {
	g := gaps(t, 1000, 20*time.Second, steadyShape{}, NewMMPP(), 7)
	if c := cv(g); c < 1.2 {
		t.Fatalf("mmpp interarrival CV = %.3f, want >1.2 (bursty, overdispersed)", c)
	}
}

// The MMPP's quiet factor is chosen so the long-run mean rate equals the
// configured rate despite the 4× bursts. Burst-duration variance
// dominates the count (each burst carries ~80% of a cycle's volume), so
// the run must span ~1000 on/off cycles before a tight band is fair:
// at 2000s the count's standard deviation is ≈2.6% of the mean, making
// the 10% band ≈4σ.
func TestMMPPMeanRatePreserved(t *testing.T) {
	sched := NewSchedule(100, 2000*time.Second, steadyShape{}, NewMMPP(), rand.New(rand.NewSource(11)))
	n := 0
	for {
		if _, ok := sched.Next(); !ok {
			break
		}
		n++
	}
	want := 100.0 * 2000
	if math.Abs(float64(n)-want) > 0.10*want {
		t.Fatalf("mmpp produced %d arrivals over 2000s at rate 100, want %0.f ±10%%", n, want)
	}
}

func TestNewArrivalProcess(t *testing.T) {
	for _, name := range []string{"", "poisson", "uniform", "mmpp"} {
		if _, err := NewArrivalProcess(name); err != nil {
			t.Fatalf("NewArrivalProcess(%q): %v", name, err)
		}
	}
	_, err := NewArrivalProcess("fractal")
	if err == nil {
		t.Fatal("NewArrivalProcess(fractal): want error")
	}
	for _, name := range ArrivalNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-process error %q does not list %q", err, name)
		}
	}
}
