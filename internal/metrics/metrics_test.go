package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Record(1_000_000)
	if h.Count() != 1 || h.Sum() != 1_000_000 {
		t.Fatal("count/sum wrong")
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := h.Percentile(p); got != 1_000_000 {
			t.Fatalf("P%v = %d, want 1000000", p, got)
		}
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatal("negative should clamp to 0")
	}
}

func TestHistogramAccuracy(t *testing.T) {
	// Against exact order statistics on a known sample.
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 100000)
	for i := range vals {
		v := int64(rng.ExpFloat64() * 5e6) // ~5ms mean
		vals[i] = v
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := vals[int(math.Ceil(p/100*float64(len(vals))))-1]
		got := h.Percentile(p)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.03 {
			t.Errorf("P%v = %d, exact %d, rel err %.3f > 3%%", p, got, exact, relErr)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for i := int64(1); i <= 1000; i++ {
		a.Record(i * 1000)
		both.Record(i * 1000)
	}
	for i := int64(1001); i <= 2000; i++ {
		b.Record(i * 1000)
		both.Record(i * 1000)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() || a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatal("merge count/sum/min/max mismatch")
	}
	if a.Percentile(50) != both.Percentile(50) {
		t.Fatal("merge p50 mismatch")
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != both.Count() {
		t.Fatal("merging empty changed count")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistogramBucketsAndCCDF(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(int64(i) * 1e6)
	}
	bs := h.Buckets()
	var total int64
	for _, b := range bs {
		if b.Low > b.High {
			t.Fatal("bucket bounds inverted")
		}
		total += b.Count
	}
	if total != 100 {
		t.Fatalf("bucket counts sum to %d, want 100", total)
	}
	ccdf := h.CCDF()
	last := 1.0
	for _, p := range ccdf {
		if p.FracAbove > last+1e-9 {
			t.Fatal("CCDF not non-increasing")
		}
		last = p.FracAbove
	}
	if math.Abs(ccdf[len(ccdf)-1].FracAbove) > 1e-9 {
		t.Fatalf("CCDF should end at 0, got %v", ccdf[len(ccdf)-1].FracAbove)
	}
}

func TestSnapshotString(t *testing.T) {
	var h Histogram
	h.Record(1e6)
	if s := h.Snapshot().String(); s == "" {
		t.Fatal("empty snapshot string")
	}
}

// Property: count and sum are conserved; percentiles are monotone in p and
// bounded by [min, max].
func TestPropertyHistogramInvariants(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		var sum int64
		for _, r := range raw {
			h.Record(int64(r))
			sum += int64(r)
		}
		if h.Count() != int64(len(raw)) || h.Sum() != sum {
			return false
		}
		prev := int64(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := h.Percentile(p)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: bucket index round-trips — every value lands in a bucket whose
// [low, high] range contains it.
func TestPropertyBucketContainment(t *testing.T) {
	f := func(v uint64) bool {
		val := int64(v % (1 << 40))
		i := bucketIndex(val)
		return bucketLow(i) <= val && val <= bucketHigh(i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBusyTracker(t *testing.T) {
	b := NewBusyTracker(4)
	b.SetBusy(0, 0)
	b.SetBusy(1e9, 4) // idle 1s
	b.SetBusy(3e9, 2) // full 2s
	// now at 4s: half busy 1s
	got := b.Utilization(4e9)
	want := (0.0 + 4*2 + 2*1) / (4.0 * 4.0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("utilization = %v, want %v", got, want)
	}
}

func TestBusyTrackerAdjust(t *testing.T) {
	b := NewBusyTracker(2)
	b.SetBusy(0, 0)
	b.Adjust(1e9, +1)
	b.Adjust(2e9, +1)
	b.Adjust(3e9, -2)
	// busy-integral = 0*1 + 1*1 + 2*1 = 3 unit-seconds over capacity 2 × 3s.
	if got := b.Utilization(3e9); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	// Back at level 0: the integral stays 3 while the window grows to 5s.
	if got := b.Utilization(5e9); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.3", got)
	}
}

func TestBusyTrackerPanics(t *testing.T) {
	b := NewBusyTracker(1)
	b.SetBusy(5, 1)
	for _, fn := range []func(){
		func() { b.SetBusy(4, 0) },  // time backwards
		func() { b.SetBusy(6, 2) },  // over capacity
		func() { b.SetBusy(6, -1) }, // negative
		func() { NewBusyTracker(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBusyTrackerReset(t *testing.T) {
	b := NewBusyTracker(2)
	b.SetBusy(0, 2)
	b.Reset(10e9)
	if got := b.Utilization(11e9); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("post-reset utilization = %v, want 1 (busy level carries over)", got)
	}
}

func TestThroughputWindow(t *testing.T) {
	var tp Throughput
	tp.Add(100) // before Start: ignored
	tp.Start(1e9)
	tp.Add(500)
	tp.Stop(6e9)
	tp.Add(100) // after Stop: ignored
	if got := tp.PerSecond(); math.Abs(got-100) > 1e-9 {
		t.Fatalf("PerSecond = %v, want 100", got)
	}
	var zero Throughput
	if zero.PerSecond() != 0 {
		t.Fatal("zero window should report 0")
	}
}

func TestTable(t *testing.T) {
	tab := Table{Title: "T", Headers: []string{"name", "value"}}
	tab.AddRow("bbb", "2")
	tab.AddRow("aaa", "10")
	want := "T\nname  value\nbbb   2    \naaa   10   \n"
	if s := tab.String(); s != want {
		t.Fatalf("String = %q, want %q", s, want)
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{Headers: []string{"name", "value"}}
	tab.AddRow("plain", "1")
	tab.AddRow(`quote"and,comma`, "2")
	csv := tab.CSV()
	want := "name,value\nplain,1\n\"quote\"\"and,comma\",2\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}
