package loadgen

import (
	"math/rand"
	"time"
)

// Schedule generates the intended arrival offsets of one run phase by
// composing a RateShape with an ArrivalProcess: arrival k happens when
// the integrated rate curve ∫λ(t)dt first reaches E₁+…+Eₖ, where the Eᵢ
// are the process's unit-mean increments and
//
//	λ(t) = rate · shape.Factor(t/duration) · modulation(t).
//
// With Exp(1) increments this is exactly an inhomogeneous Poisson
// process with intensity λ; with unit increments it paces arrivals
// deterministically along the same curve (so the total count equals
// ∫λ ± 1 — the property the shape-integration tests pin down).
type Schedule struct {
	rate     float64
	duration time.Duration
	shape    RateShape
	proc     ArrivalProcess
	rng      *rand.Rand

	cursor   time.Duration // integration position
	modF     float64       // process modulation in effect at cursor
	modUntil time.Duration
}

// scheduleStep bounds the rectangle-rule integration step so shapes are
// sampled finely enough: 5ms keeps the count error of smooth shapes well
// under the tests' ±1% tolerance while costing only duration/5ms steps
// per run.
const scheduleStep = 5 * time.Millisecond

// NewSchedule builds a schedule over [0, duration) at the given mean
// rate (arrivals/second). The process is consumed statefully — give each
// schedule its own.
func NewSchedule(rate float64, duration time.Duration, shape RateShape, proc ArrivalProcess, rng *rand.Rand) *Schedule {
	if shape == nil {
		shape = steadyShape{}
	}
	if proc == nil {
		proc = poisson{}
	}
	return &Schedule{rate: rate, duration: duration, shape: shape, proc: proc, rng: rng, modUntil: -1}
}

// Next returns the next intended arrival offset; ok=false once the phase
// is exhausted.
func (s *Schedule) Next() (offset time.Duration, ok bool) {
	if s.rate <= 0 || s.duration <= 0 {
		return 0, false
	}
	need := s.proc.Increment(s.rng) // expected arrivals still to accumulate
	for s.cursor < s.duration {
		if s.cursor >= s.modUntil {
			s.modF, s.modUntil = s.proc.Modulation(s.cursor, s.rng)
		}
		step := s.duration - s.cursor
		if step > scheduleStep {
			step = scheduleStep
		}
		if rem := s.modUntil - s.cursor; rem > 0 && rem < step {
			step = rem
		}
		u := float64(s.cursor) / float64(s.duration)
		lambda := s.rate * s.shape.Factor(u) * s.modF
		if lambda < 0 {
			lambda = 0
		}
		area := lambda * step.Seconds()
		if area >= need && area > 0 {
			// The arrival lands inside this step; λ is constant across it,
			// so the within-step position is exact.
			s.cursor += time.Duration(float64(step) * need / area)
			return s.cursor, true
		}
		need -= area
		s.cursor += step
	}
	return 0, false
}
