// Package core implements the paper's contribution: characterizing how
// each microservice scales up inside one server, and exploiting that
// characterization together with processor-topology knowledge to build the
// deployment that delivers the paper's headline gains (+22 % throughput,
// −18 % latency over a performance-tuned baseline).
//
// The package provides three layers:
//
//   - USL fitting (FitUSL): quantify a service's scaling curve with the
//     Universal Scalability Law, X(n) = λn / (1 + σ(n−1) + κn(n−1)).
//   - Characterization (CharacterizeService / CharacterizeAll): measure
//     isolated scaling curves on the simulated server and classify each
//     service as scalable or serialization-limited.
//   - Optimization (AnalyticShares / Optimize): derive per-service CPU
//     demand shares from the workload and emit the topology-aware cell
//     deployment plus the routing mode it requires.
package core

import (
	"fmt"
	"math"
)

// ScalingPoint is one measured point of a scaling curve.
type ScalingPoint struct {
	// Cores is the physical-core allotment.
	Cores int
	// OpsPerSec is the measured saturated throughput at that allotment.
	OpsPerSec float64
}

// USLFit holds fitted Universal Scalability Law coefficients:
//
//	X(n) = Lambda·n / (1 + Sigma·(n−1) + Kappa·n·(n−1))
//
// Lambda is single-core throughput, Sigma the contention (serial) fraction,
// Kappa the coherence penalty.
type USLFit struct {
	Lambda float64
	Sigma  float64
	Kappa  float64
	// RMSRel is the root-mean-square relative error of the fit.
	RMSRel float64
}

// Throughput evaluates the fitted law at n cores.
func (f USLFit) Throughput(n float64) float64 {
	if n <= 0 {
		return 0
	}
	return f.Lambda * n / (1 + f.Sigma*(n-1) + f.Kappa*n*(n-1))
}

// AsymptoteOps returns the throughput ceiling 1/(σ·perOpTime) implied by
// contention: lim X(n) = Lambda/Sigma for Kappa = 0. Infinite when σ = 0.
func (f USLFit) AsymptoteOps() float64 {
	if f.Sigma <= 0 {
		return math.Inf(1)
	}
	return f.Lambda / f.Sigma
}

func (f USLFit) String() string {
	return fmt.Sprintf("USL{λ=%.1f ops/s·core, σ=%.4f, κ=%.6f, rms=%.1f%%}",
		f.Lambda, f.Sigma, f.Kappa, f.RMSRel*100)
}

// FitUSL fits the law to measured points by linear least squares on the
// transformed model n/X(n) = a + b·(n−1) + c·n·(n−1), with a = 1/λ,
// b = σ/λ, c = κ/λ. Sigma and Kappa are clamped to be non-negative (a
// negative solution means the data shows super-linear noise, which the law
// cannot represent). At least three distinct core counts are required.
func FitUSL(points []ScalingPoint) (USLFit, error) {
	distinct := map[int]bool{}
	for _, p := range points {
		if p.Cores <= 0 {
			return USLFit{}, fmt.Errorf("core: scaling point with non-positive cores %d", p.Cores)
		}
		if p.OpsPerSec <= 0 {
			return USLFit{}, fmt.Errorf("core: scaling point with non-positive throughput %v at %d cores", p.OpsPerSec, p.Cores)
		}
		distinct[p.Cores] = true
	}
	if len(distinct) < 3 {
		return USLFit{}, fmt.Errorf("core: need ≥3 distinct core counts to fit USL, have %d", len(distinct))
	}

	// Build normal equations for y = a + b·u + c·v, u = n−1, v = n(n−1).
	var s [3][4]float64
	for _, p := range points {
		n := float64(p.Cores)
		y := n / p.OpsPerSec
		row := [3]float64{1, n - 1, n * (n - 1)}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				s[i][j] += row[i] * row[j]
			}
			s[i][3] += row[i] * y
		}
	}
	coef, ok := solve3(s)
	if !ok {
		return USLFit{}, fmt.Errorf("core: singular system fitting USL")
	}
	a, b, c := coef[0], coef[1], coef[2]
	if a <= 0 {
		return USLFit{}, fmt.Errorf("core: non-physical USL fit (1/λ = %v)", a)
	}
	fit := USLFit{Lambda: 1 / a, Sigma: b / a, Kappa: c / a}
	if fit.Sigma < 0 {
		fit.Sigma = 0
	}
	if fit.Kappa < 0 {
		fit.Kappa = 0
	}

	// Quantify fit quality.
	var sq float64
	for _, p := range points {
		pred := fit.Throughput(float64(p.Cores))
		rel := (pred - p.OpsPerSec) / p.OpsPerSec
		sq += rel * rel
	}
	fit.RMSRel = math.Sqrt(sq / float64(len(points)))
	return fit, nil
}

// solve3 solves a 3×3 linear system given as an augmented matrix, by
// Gaussian elimination with partial pivoting.
func solve3(m [3][4]float64) ([3]float64, bool) {
	for col := 0; col < 3; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return [3]float64{}, false
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			factor := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= factor * m[col][c]
			}
		}
	}
	var out [3]float64
	for i := 0; i < 3; i++ {
		out[i] = m[i][3] / m[i][i]
	}
	return out, true
}
