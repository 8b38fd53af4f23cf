// Package metrics provides the measurement primitives shared by the
// simulator and the real load generator: log-linear latency histograms with
// accurate tail percentiles, counters, time-weighted utilization trackers,
// and throughput accounting.
//
// All durations are int64 nanoseconds so the package works identically with
// virtual (desim) and wall-clock (time) measurements.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// subBucketBits controls histogram resolution: each power-of-two octave is
// split into 2^subBucketBits linear sub-buckets, giving a worst-case
// relative error of 1/2^subBucketBits ≈ 1.6 %.
const subBucketBits = 6

const subBuckets = 1 << subBucketBits

// Histogram records int64 nanosecond values into log-linear buckets,
// HdrHistogram-style. The zero value is ready to use. Histogram is not
// safe for concurrent use; the real load generator keeps one per worker and
// merges.
type Histogram struct {
	counts [64 * subBuckets]int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	// Values below subBuckets land in the linear region one-to-one.
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - subBucketBits
	sub := v >> exp // in [subBuckets, 2*subBuckets)
	return int(exp+1)*subBuckets + int(sub) - subBuckets
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets - 1
	sub := int64(i%subBuckets) + subBuckets
	return sub << exp
}

// bucketHigh returns the largest value mapping to bucket i.
func bucketHigh(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets - 1
	sub := int64(i%subBuckets) + subBuckets
	return (sub+1)<<exp - 1
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Percentile returns an estimate of the p-th percentile, p in [0, 100].
// Estimates use the midpoint of the containing bucket, clamped to the
// recorded min/max so tails never over-report.
func (h *Histogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			mid := (bucketLow(i) + bucketHigh(i)) / 2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() { *h = Histogram{} }

// Snapshot summarizes the distribution at the usual reporting points.
type Snapshot struct {
	Count              int64
	Mean               float64
	Min, P50, P90, P95 int64
	P99, P999, Max     int64
}

// Snapshot captures the current distribution summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.count,
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.max,
	}
}

// String formats the snapshot with millisecond precision.
func (s Snapshot) String() string {
	ms := func(v int64) string { return fmt.Sprintf("%.2fms", float64(v)/1e6) }
	return fmt.Sprintf("n=%d mean=%s p50=%s p90=%s p99=%s p99.9=%s max=%s",
		s.Count, ms(int64(s.Mean)), ms(s.P50), ms(s.P90), ms(s.P99), ms(s.P999), ms(s.Max))
}

// Buckets returns the non-empty (low, high, count) triples, for rendering
// full distributions (experiment E8).
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, Bucket{Low: bucketLow(i), High: bucketHigh(i), Count: c})
		}
	}
	return out
}

// Bucket is one histogram bin.
type Bucket struct {
	Low, High int64
	Count     int64
}

// CCDF returns (value, fraction-of-observations-above-value) pairs at each
// non-empty bucket boundary — the complementary CDF used for tail plots.
func (h *Histogram) CCDF() []CCDFPoint {
	bs := h.Buckets()
	out := make([]CCDFPoint, 0, len(bs))
	var below int64
	for _, b := range bs {
		below += b.Count
		frac := 1 - float64(below)/float64(h.count)
		out = append(out, CCDFPoint{Value: b.High, FracAbove: frac})
	}
	return out
}

// CCDFPoint is one point of a complementary CDF.
type CCDFPoint struct {
	Value     int64
	FracAbove float64
}
