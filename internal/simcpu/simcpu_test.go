package simcpu

import (
	"math"
	"testing"

	"repro/internal/desim"
	"repro/internal/topology"
)

// noBoost builds a processor with boost disabled so math is exact.
func noBoost(t *testing.T, mach *topology.Machine) (*desim.Engine, *Processor) {
	t.Helper()
	eng := desim.New()
	p, err := New(eng, mach, Params{SMTFactor: 0.5, BoostEnabled: false})
	if err != nil {
		t.Fatal(err)
	}
	return eng, p
}

// settle runs the engine for one simulated second, past the end of every
// segment these tests submit.
func settle(eng *desim.Engine) { eng.RunUntil(desim.Time(desim.Second)) }

func TestSingleSegmentRuntime(t *testing.T) {
	eng, p := noBoost(t, topology.Small())
	var doneAt desim.Time = -1
	p.Submit(&Segment{
		Work:   desim.Duration(10 * desim.Millisecond),
		OnDone: func(cpu int) { doneAt = eng.Now() },
	})
	settle(eng)
	if doneAt != desim.Time(10*desim.Millisecond) {
		t.Fatalf("solo segment finished at %v, want 10ms", doneAt)
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	eng, p := noBoost(t, topology.Small())
	done := false
	started := false
	p.Submit(&Segment{
		Work:    0,
		OnStart: func(cpu int) { started = true },
		OnDone:  func(cpu int) { done = true },
	})
	if !done || !started {
		t.Fatal("zero-work segment should complete synchronously")
	}
	eng.RunUntil(desim.Time(desim.Millisecond))
	if u := p.Utilization(); u != 0 {
		t.Fatalf("zero-work segment occupied a CPU: utilization %v", u)
	}
}

func TestMissingOnDonePanics(t *testing.T) {
	_, p := noBoost(t, topology.Small())
	defer func() {
		if recover() == nil {
			t.Error("Submit without OnDone did not panic")
		}
	}()
	p.Submit(&Segment{Work: 1})
}

func TestPrefersIdleCores(t *testing.T) {
	// Small machine: 8 cores, 16 threads; siblings are (i, i+8).
	mach := topology.Small()
	eng, p := noBoost(t, mach)
	cpus := map[int]bool{}
	for i := 0; i < 8; i++ {
		p.Submit(&Segment{
			Work:   desim.Duration(desim.Millisecond),
			OnDone: func(cpu int) {},
			OnStart: func(cpu int) {
				cpus[cpu] = true
			},
		})
	}
	settle(eng)
	// With 8 segments on 8 cores, every segment should have its own core:
	// no two on SMT siblings.
	cores := map[int]int{}
	for cpu := range cpus {
		cores[mach.CPU(cpu).Core]++
	}
	for core, n := range cores {
		if n > 1 {
			t.Fatalf("core %d got %d segments though idle cores existed", core, n)
		}
	}
}

func TestSMTContentionSlowsBoth(t *testing.T) {
	// Pin two segments to the two threads of core 0. With SMTFactor 0.5
	// and equal work, both should take 2× solo time.
	mach := topology.Small()
	eng, p := noBoost(t, mach)
	sibs := mach.CoreSiblings(0)
	aff := topology.NewCPUSet(sibs...)
	var ends []desim.Time
	for i := 0; i < 2; i++ {
		p.Submit(&Segment{
			Work:     desim.Duration(10 * desim.Millisecond),
			Affinity: aff,
			OnDone:   func(cpu int) { ends = append(ends, eng.Now()) },
		})
	}
	settle(eng)
	if len(ends) != 2 {
		t.Fatalf("completed %d, want 2", len(ends))
	}
	for _, e := range ends {
		if e != desim.Time(20*desim.Millisecond) {
			t.Fatalf("SMT-contended segment finished at %v, want 20ms", e)
		}
	}
}

func TestSMTSpeedupAfterSiblingFinishes(t *testing.T) {
	// Segment A (10ms) and segment B (5ms) share a core, SMTFactor 0.5.
	// B finishes at 10ms (5ms work at half speed). A then has 5ms of work
	// left and runs alone: finishes at 15ms.
	mach := topology.Small()
	eng, p := noBoost(t, mach)
	aff := topology.NewCPUSet(mach.CoreSiblings(0)...)
	var aEnd, bEnd desim.Time
	p.Submit(&Segment{
		Work: desim.Duration(10 * desim.Millisecond), Affinity: aff,
		OnDone: func(cpu int) { aEnd = eng.Now() },
	})
	p.Submit(&Segment{
		Work: desim.Duration(5 * desim.Millisecond), Affinity: aff,
		OnDone: func(cpu int) { bEnd = eng.Now() },
	})
	settle(eng)
	if bEnd != desim.Time(10*desim.Millisecond) {
		t.Fatalf("B finished at %v, want 10ms", bEnd)
	}
	if aEnd != desim.Time(15*desim.Millisecond) {
		t.Fatalf("A finished at %v, want 15ms", aEnd)
	}
}

func TestCPIMultiplierSlowsSegment(t *testing.T) {
	eng, p := noBoost(t, topology.Small())
	var doneAt desim.Time
	p.Submit(&Segment{
		Work:   desim.Duration(10 * desim.Millisecond),
		CPI:    func(cpu int) float64 { return 2.0 },
		OnDone: func(cpu int) { doneAt = eng.Now() },
	})
	settle(eng)
	if doneAt != desim.Time(20*desim.Millisecond) {
		t.Fatalf("CPI=2 segment finished at %v, want 20ms", doneAt)
	}
}

func TestCPIBelowOneClamps(t *testing.T) {
	eng, p := noBoost(t, topology.Small())
	var doneAt desim.Time
	p.Submit(&Segment{
		Work:   desim.Duration(10 * desim.Millisecond),
		CPI:    func(cpu int) float64 { return 0.1 },
		OnDone: func(cpu int) { doneAt = eng.Now() },
	})
	settle(eng)
	if doneAt != desim.Time(10*desim.Millisecond) {
		t.Fatalf("CPI<1 should clamp to 1; finished at %v", doneAt)
	}
}

func TestQueueingFIFOWithinAffinity(t *testing.T) {
	// One CPU of affinity; three segments; they must run serially FIFO:
	// the second and third wait, and finish at 2 ms and 3 ms.
	mach := topology.Small()
	eng, p := noBoost(t, mach)
	aff := topology.NewCPUSet(0)
	var order []int
	var ends []desim.Time
	for i := 0; i < 3; i++ {
		i := i
		p.Submit(&Segment{
			Work: desim.Duration(desim.Millisecond), Affinity: aff,
			OnDone: func(cpu int) { order = append(order, i); ends = append(ends, eng.Now()) },
		})
	}
	settle(eng)
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v not FIFO", order)
		}
	}
	for i, end := range ends {
		if want := desim.Time(i+1) * desim.Time(desim.Millisecond); end != want {
			t.Fatalf("segment %d finished at %v, want %v (queued behind the others)", i, end, want)
		}
	}
}

func TestDisjointAffinityNoCrossTalk(t *testing.T) {
	mach := topology.Small()
	eng, p := noBoost(t, mach)
	setA := topology.NewCPUSet(0)
	setB := topology.NewCPUSet(1)
	var aCPU, bCPU int
	p.Submit(&Segment{Work: 1e6, Affinity: setA, OnDone: func(cpu int) { aCPU = cpu }})
	// Occupy A's CPU, then submit to B: B must not steal CPU 0's queue slot.
	p.Submit(&Segment{Work: 1e6, Affinity: setA, OnDone: func(cpu int) {}})
	p.Submit(&Segment{Work: 1e6, Affinity: setB, OnDone: func(cpu int) { bCPU = cpu }})
	settle(eng)
	if aCPU != 0 || bCPU != 1 {
		t.Fatalf("affinity violated: aCPU=%d bCPU=%d", aCPU, bCPU)
	}
}

func TestBoostSpeedsLightLoad(t *testing.T) {
	// With boost enabled and one task on an otherwise idle machine, the
	// task runs faster than base (ratio ≈ boost/base at one busy core).
	mach := topology.Small() // base 2.25, boost 3.4
	eng := desim.New()
	p, err := New(eng, mach, Params{SMTFactor: 0.62, BoostEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	var doneAt desim.Time
	p.Submit(&Segment{
		Work:   desim.Duration(10 * desim.Millisecond),
		OnDone: func(cpu int) { doneAt = eng.Now() },
	})
	settle(eng)
	// 1 of 8 cores busy: ghz = 3.4 - (3.4-2.25)*(1/8) = 3.25625;
	// ratio = 3.25625/2.25 ≈ 1.447 → 10ms / 1.447 ≈ 6.91ms.
	want := 10.0 / (3.25625 / 2.25)
	got := float64(doneAt) / float64(desim.Millisecond)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("boosted runtime = %.3fms, want %.3fms", got, want)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	mach := topology.Small() // 16 CPUs
	eng, p := noBoost(t, mach)
	p.Submit(&Segment{
		Work:   desim.Duration(10 * desim.Millisecond),
		OnDone: func(cpu int) {},
	})
	eng.RunUntil(desim.Time(10 * desim.Millisecond))
	got := p.Utilization()
	want := 1.0 / 16.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("utilization = %v, want %v", got, want)
	}
}

func TestResetStats(t *testing.T) {
	mach := topology.Small()
	eng, p := noBoost(t, mach)
	p.Submit(&Segment{Work: desim.Duration(desim.Millisecond), OnDone: func(int) {}})
	settle(eng)
	p.ResetStats()
	eng.RunUntil(eng.Now().Add(desim.Millisecond))
	if p.Utilization() != 0 {
		t.Fatalf("post-reset utilization = %v, want 0", p.Utilization())
	}
}

func TestParamsValidate(t *testing.T) {
	for _, bad := range []Params{{SMTFactor: 0}, {SMTFactor: 1.5}, {SMTFactor: -1}} {
		if _, err := New(desim.New(), topology.Small(), bad); err == nil {
			t.Errorf("bad params %+v accepted", bad)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Throughput sanity: with SMT factor f, 2N threads on N cores should
// complete ~2f× the work of N threads in the same wall time.
func TestSMTThroughputGain(t *testing.T) {
	run := func(tasks int) float64 {
		mach := topology.Small() // 8 cores / 16 threads
		eng, p := noBoost(t, mach)
		completed := 0
		var resubmit func()
		work := desim.Duration(desim.Millisecond)
		resubmit = func() {
			p.Submit(&Segment{Work: work, OnDone: func(int) {
				completed++
				resubmit()
			}})
		}
		for i := 0; i < tasks; i++ {
			resubmit()
		}
		eng.RunUntil(desim.Time(desim.Second))
		return float64(completed)
	}
	oneThread := run(8)   // one per core
	twoThreads := run(16) // both SMT threads busy
	gain := twoThreads / oneThread
	// SMTFactor 0.5 → per-core gain 2×0.5 = 1.0 (no gain at factor 0.5).
	if math.Abs(gain-1.0) > 0.05 {
		t.Fatalf("SMT throughput gain = %.3f, want ~1.0 at factor 0.5", gain)
	}
}
