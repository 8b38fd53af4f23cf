package metrics

import (
	"math/rand"
	"sync"
	"testing"
)

// TestAtomicHistogramMatchesHistogram checks sequential equivalence: the
// concurrent histogram must bucket exactly like the plain one.
func TestAtomicHistogramMatchesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var plain Histogram
	ah := NewAtomicHistogram()
	for i := 0; i < 10_000; i++ {
		v := rng.Int63n(1e9) - 1000 // include negatives to hit the clamp
		plain.Record(v)
		ah.Record(v)
	}
	got, want := ah.Freeze(), &plain
	if got.Count() != want.Count() || got.Sum() != want.Sum() {
		t.Fatalf("count/sum: got %d/%d want %d/%d", got.Count(), got.Sum(), want.Count(), want.Sum())
	}
	if got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("min/max: got %d/%d want %d/%d", got.Min(), got.Max(), want.Min(), want.Max())
	}
	for _, p := range []float64{0, 50, 90, 99, 99.9, 100} {
		if got.Percentile(p) != want.Percentile(p) {
			t.Fatalf("p%g: got %d want %d", p, got.Percentile(p), want.Percentile(p))
		}
	}
}

// TestAtomicHistogramParallelWriters hammers one histogram from many
// goroutines — the scenario the httpkit middleware creates — and checks
// that no observation is lost. Run under -race this is also the data-race
// proof for the lock-free path.
func TestAtomicHistogramParallelWriters(t *testing.T) {
	const goroutines = 16
	const perG = 5_000
	ah := NewAtomicHistogram()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				ah.Record(rng.Int63n(1e8))
			}
		}(g)
	}
	wg.Wait()
	frozen := ah.Freeze()
	if frozen.Count() != goroutines*perG {
		t.Fatalf("lost observations: count = %d, want %d", frozen.Count(), goroutines*perG)
	}
	if ah.Count() != goroutines*perG {
		t.Fatalf("Count() = %d, want %d", ah.Count(), goroutines*perG)
	}
	if frozen.Min() < 0 || frozen.Max() >= 1e8 {
		t.Fatalf("min/max outside recorded range: %d/%d", frozen.Min(), frozen.Max())
	}
	s := frozen.Snapshot()
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Fatalf("percentiles inverted: %+v", s)
	}
}

// TestAtomicHistogramConcurrentReaders freezes while writers are active:
// snapshots must stay internally coherent (never more count than buckets).
func TestAtomicHistogramConcurrentReaders(t *testing.T) {
	ah := NewAtomicHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
					ah.Record(i % 1e6)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := ah.Snapshot()
		if s.Count > 0 && (s.Min > s.P50 || s.P50 > s.Max) {
			close(stop)
			wg.Wait()
			t.Fatalf("incoherent snapshot under concurrency: %+v", s)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAtomicHistogramEmpty covers the zero-observation edge.
func TestAtomicHistogramEmpty(t *testing.T) {
	ah := NewAtomicHistogram()
	if ah.Count() != 0 {
		t.Fatal("fresh histogram non-empty")
	}
	s := ah.Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

// TestAtomicHistogramFreezeMergeable proves frozen copies merge like any
// plain histogram — the per-worker-merge pattern loadgen relies on.
func TestAtomicHistogramFreezeMergeable(t *testing.T) {
	a, b := NewAtomicHistogram(), NewAtomicHistogram()
	for i := int64(0); i < 100; i++ {
		a.Record(i * 1000)
		b.Record(i * 2000)
	}
	merged := a.Freeze()
	merged.Merge(b.Freeze())
	if merged.Count() != 200 {
		t.Fatalf("merged count = %d", merged.Count())
	}
	if merged.Max() != 99*2000 {
		t.Fatalf("merged max = %d", merged.Max())
	}
}

// TestTrackersSingleGoroutineContract is the -race regression companion to
// the documentation on BusyTracker and Throughput: both are simulator-side
// types driven from exactly one goroutine, so this test exercises their
// whole API from one goroutine and must stay race-clean trivially. If a
// future change shares them with the HTTP path, this is the place that
// documents why they must first grow atomics.
func TestTrackersSingleGoroutineContract(t *testing.T) {
	bt := NewBusyTracker(2)
	bt.SetBusy(0, 1)
	bt.Adjust(10, 1)
	bt.Adjust(20, -2)
	if got := bt.Utilization(30); got <= 0 || got > 1 {
		t.Fatalf("utilization = %v", got)
	}

	var tp Throughput
	tp.Start(0)
	tp.Add(5)
	tp.Stop(1e9)
	if tp.PerSecond() != 5 {
		t.Fatalf("throughput = %v", tp.PerSecond())
	}
}
