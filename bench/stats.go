package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark carries its own order statistics so that a rewrite of
// internal/metrics cannot change what a reported percentile means.

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending slice, 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs ascending without touching the argument.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted slice, 0 when empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one request's luck.
const tailBeyond = 10

// supportedTail is the highest percentile, capped at p99, that still has
// tailBeyond samples beyond it among n; never below the median.
func supportedTail(n int) float64 {
	if n <= 2*tailBeyond {
		return 0.5
	}
	return math.Min(0.99, 1-float64(tailBeyond)/float64(n))
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread
// computed here equals the one the acceptance driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// msOf is a duration in milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
