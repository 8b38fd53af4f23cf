package desim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// drain fires every pending event, leaving the clock at the end of time.
func drain(e *Engine) { e.RunUntil(Time(math.MaxInt64)) }

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New()
	var fired Time = -1
	e.After(5*Millisecond, func() { fired = e.Now() })
	e.RunUntil(Time(5 * Millisecond))
	if fired != Time(5*Millisecond) {
		t.Fatalf("fired at %v, want 5ms", fired)
	}
	if e.Now() != Time(5*Millisecond) {
		t.Fatalf("clock at %v, want 5ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(Millisecond), func() { order = append(order, i) })
	}
	drain(e)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (events at same instant must fire FIFO)", i, v, i)
		}
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.After(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	drain(e)
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	id := e.After(Millisecond, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	drain(e)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFiredEventIsNoop(t *testing.T) {
	e := New()
	id := e.After(Millisecond, func() {})
	drain(e)
	if e.Cancel(id) {
		t.Fatal("Cancel of already-fired event returned true")
	}
}

func TestRunUntilBoundary(t *testing.T) {
	e := New()
	var at5, at10 bool
	e.After(5*Millisecond, func() { at5 = true })
	e.After(10*Millisecond, func() { at10 = true })
	e.RunUntil(Time(7 * Millisecond))
	if !at5 || at10 {
		t.Fatalf("at5=%v at10=%v, want true,false", at5, at10)
	}
	if e.Now() != Time(7*Millisecond) {
		t.Fatalf("clock = %v, want 7ms", e.Now())
	}
	// Event exactly at the boundary fires.
	e.RunUntil(Time(10 * Millisecond))
	if !at10 {
		t.Fatal("event at boundary instant did not fire")
	}
}

func TestRunUntilAccumulates(t *testing.T) {
	e := New()
	count := 0
	cancel := e.Ticker(Millisecond, func() { count++ })
	e.RunUntil(e.Now().Add(10 * Millisecond))
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	cancel()
	e.RunUntil(e.Now().Add(10 * Millisecond))
	if count != 10 {
		t.Fatalf("ticks after cancel = %d, want 10", count)
	}
	if e.Now() != Time(20*Millisecond) {
		t.Fatalf("clock = %v, want 20ms", e.Now())
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := New()
	e.After(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant RunUntil did not panic")
			}
		}()
		e.RunUntil(Time(2 * Millisecond))
	})
	drain(e)
}

// Property: events always fire in non-decreasing time order, regardless of
// the order they were scheduled in.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		e := New()
		rng := rand.New(rand.NewSource(seed))
		var fireTimes []Time
		for _, r := range raw {
			at := Time(r) * Time(Microsecond)
			// Schedule from a random mix of At and nested After.
			if rng.Intn(2) == 0 {
				e.At(at, func() { fireTimes = append(fireTimes, e.Now()) })
			} else {
				e.At(at, func() {
					e.After(Duration(rng.Intn(1000)), func() {
						fireTimes = append(fireTimes, e.Now())
					})
				})
			}
		}
		drain(e)
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds produce identical event traces.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := New()
		rng := NewRNGPool(seed).Stream("load")
		var trace []Time
		var spawn func()
		spawn = func() {
			trace = append(trace, e.Now())
			if len(trace) < 500 {
				e.After(rng.Exp(Millisecond)+1, spawn)
			}
		}
		e.After(0, spawn)
		drain(e)
		return trace
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationConversions(t *testing.T) {
	if FromStd(3*time.Millisecond) != 3*Millisecond {
		t.Fatal("FromStd mismatch")
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", got)
	}
	if DurationOf(0.25) != 250*Millisecond {
		t.Fatalf("DurationOf(0.25) = %v", DurationOf(0.25))
	}
	if DurationOf(1e300) <= 0 {
		t.Fatal("DurationOf overflow not saturated")
	}
	if Time(5*Second).Sub(Time(2*Second)) != 3*Second {
		t.Fatal("Time.Sub mismatch")
	}
}
