package desim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a named deterministic random stream. Distinct model components ask
// the engine's RNGPool for distinct streams so that adding randomness to one
// component never perturbs another — a requirement for meaningful A/B
// comparisons between simulator configurations.
type RNG struct {
	*rand.Rand
}

// Exp draws an exponentially distributed duration with the given mean.
func (r RNG) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	d := Duration(r.ExpFloat64() * float64(mean))
	if d < 0 {
		return 0
	}
	return d
}

// LogNormal draws a log-normally distributed duration with the given median
// and sigma (shape). Service demands are long-tailed; lognormal captures
// that with two intuitive parameters.
func (r RNG) LogNormal(median Duration, sigma float64) Duration {
	if median <= 0 {
		return 0
	}
	x := math.Exp(r.NormFloat64()*sigma) * float64(median)
	if x >= math.MaxInt64 {
		return Duration(math.MaxInt64)
	}
	return Duration(x)
}

// Uniform draws a duration uniformly from [lo, hi).
func (r RNG) Uniform(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Int63n(int64(hi-lo)))
}

// RNGPool hands out independent named random streams derived from a single
// master seed.
//
// Seed contract: a stream's output is a pure function of (master seed,
// stream name) — stable across runs, processes, and platforms, because
// each stream is math/rand's fixed generator seeded with an FNV-1a +
// splitmix mix of the two. Together with the engine's FIFO tie-break for
// same-instant events and its single-threaded execution, this makes any
// model built on the kernel a deterministic function of its master seed:
// two runs with the same seed produce byte-identical event traces and
// results. Consequences for model code:
//
//   - Request a stream once and keep it; re-requesting the same name
//     restarts the stream from its beginning.
//   - Adding a NEW named stream never perturbs draws on existing
//     streams; renaming a stream, or borrowing draws from another
//     component's stream, changes every downstream sample.
//   - Iteration order over maps must never decide draw order; schedule
//     events instead (the engine fires same-instant events FIFO).
//
// The determinism regression test (determinism_test.go) locks the
// contract in; the cross-validation harness relies on it so simulated
// sweeps are exactly reproducible from a recorded seed.
type RNGPool struct {
	seed uint64
}

// NewRNGPool returns a pool keyed by the master seed.
func NewRNGPool(seed int64) *RNGPool { return &RNGPool{seed: uint64(seed)} }

// Stream returns the deterministic stream for name. Calling Stream twice
// with the same name returns two streams with identical future output, so
// components should request a stream once and keep it.
func (p *RNGPool) Stream(name string) RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	// splitmix-style final mix so nearby seeds decorrelate.
	z := p.seed ^ h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return RNG{rand.New(rand.NewSource(int64(z)))}
}
