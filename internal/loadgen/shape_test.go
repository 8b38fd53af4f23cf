package loadgen

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// countArrivals integrates a shape through the scheduler with
// deterministic (uniform) pacing, so the arrival count is the shape's
// integral with no stochastic noise.
func countArrivals(t *testing.T, rate float64, dur time.Duration, shape RateShape) int {
	t.Helper()
	sched := NewSchedule(rate, dur, shape, uniform{}, rand.New(rand.NewSource(1)))
	n := 0
	for {
		if _, ok := sched.Next(); !ok {
			break
		}
		n++
	}
	return n
}

// Every named shape is normalized to integrate to 1 over the run, so the
// configured rate is the true mean whatever the trajectory. Deterministic
// pacing must therefore yield rate × duration arrivals within 1%.
func TestShapesIntegrateToConfiguredMean(t *testing.T) {
	const rate, durSec = 500.0, 10.0
	want := rate * durSec
	for _, name := range ShapeNames() {
		shape, err := NewShape(name)
		if err != nil {
			t.Fatalf("NewShape(%q): %v", name, err)
		}
		n := countArrivals(t, rate, time.Duration(durSec)*time.Second, shape)
		if math.Abs(float64(n)-want) > 0.01*want {
			t.Errorf("shape %q produced %d arrivals, want %.0f ±1%%", name, n, want)
		}
	}
}

// The flash shape must actually deliver its burst: the peak window's
// arrival density over the base must be flashPeak/flashBase.
func TestFlashShapeBurstDensity(t *testing.T) {
	shape, err := NewShape("flash")
	if err != nil {
		t.Fatal(err)
	}
	from, to := FlashWindow()
	mid := (from + to) / 2
	ratio := shape.Factor(mid) / shape.Factor(0.1)
	want := flashPeak / flashBase
	if math.Abs(ratio-want) > 0.01*want {
		t.Fatalf("flash burst/base factor ratio = %.3f, want %.3f", ratio, want)
	}
}

// A trace shape is normalized by its own mean, so an arbitrary trace
// also delivers the configured mean rate.
func TestTraceShapeNormalization(t *testing.T) {
	shape, err := NewTraceShape([]TracePoint{{0, 10}, {10, 30}})
	if err != nil {
		t.Fatal(err)
	}
	// Mean of the linear ramp 10→30 is 20: the endpoints scale to 0.5 and 1.5.
	if f := shape.Factor(0); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("Factor(0) = %.4f, want 0.5", f)
	}
	if f := shape.Factor(1); math.Abs(f-1.5) > 1e-9 {
		t.Fatalf("Factor(1) = %.4f, want 1.5", f)
	}
	n := countArrivals(t, 300, 10*time.Second, shape)
	if want := 3000.0; math.Abs(float64(n)-want) > 0.01*want {
		t.Fatalf("trace shape produced %d arrivals, want %.0f ±1%%", n, want)
	}
}

func TestParseTrace(t *testing.T) {
	points, err := ParseTrace(strings.NewReader("# diurnal-ish\n0, 10\n30, 40\n\n60, 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("parsed %d points, want 3", len(points))
	}
	shape, err := NewTraceShape(points)
	if err != nil {
		t.Fatal(err)
	}
	if shape.Name() != "trace" {
		t.Fatalf("trace shape name = %q", shape.Name())
	}
	if _, err := ParseTrace(strings.NewReader("not-a-trace\n")); err == nil {
		t.Fatal("malformed trace line: want error")
	}
	if _, err := NewTraceShape([]TracePoint{{0, 10}}); err == nil {
		t.Fatal("single-point trace: want error")
	}
	if _, err := NewTraceShape([]TracePoint{{10, 5}, {0, 5}}); err == nil {
		t.Fatal("non-monotone trace offsets: want error")
	}
	if _, err := NewTraceShape([]TracePoint{{0, 0}, {10, 0}}); err == nil {
		t.Fatal("all-zero trace: want error")
	}
}

func TestNewShapeUnknown(t *testing.T) {
	_, err := NewShape("plateau")
	if err == nil {
		t.Fatal("NewShape(plateau): want error")
	}
	for _, name := range ShapeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-shape error %q does not list %q", err, name)
		}
	}
}
