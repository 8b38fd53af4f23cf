// Package desim provides a deterministic discrete-event simulation kernel.
//
// The kernel is callback based rather than goroutine based: every piece of
// simulated activity is an event — a function scheduled to run at a point in
// virtual time. Events scheduled for the same instant fire in scheduling
// order, which together with seeded random streams makes every run fully
// reproducible.
//
// Virtual time is measured in nanoseconds and exposed as the Time type; the
// zero Engine starts at time 0.
package desim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely to
// and from time.Duration.
type Duration int64

// Common durations, mirroring the time package for readable model code.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// FromStd converts a time.Duration to a simulation Duration.
func FromStd(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration using time.Duration notation.
func (d Duration) String() string { return time.Duration(d).String() }

// DurationOf converts a floating-point number of seconds to a Duration,
// saturating rather than overflowing for absurd inputs.
func DurationOf(seconds float64) Duration {
	ns := seconds * float64(Second)
	if ns >= math.MaxInt64 {
		return Duration(math.MaxInt64)
	}
	if ns <= math.MinInt64 {
		return Duration(math.MinInt64)
	}
	return Duration(ns)
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two instants.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the instant as seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as an offset from simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// An event is a callback bound to an instant. seq breaks ties so that
// same-instant events fire in FIFO order. idx is the event's heap index,
// -1 once it has fired or been cancelled.
type event struct {
	at  Time
	seq uint64
	fn  func()
	idx int
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct{ ev *event }

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	ev.idx = -1
	return ev
}

// Engine is a discrete-event simulation executive. It is not safe for
// concurrent use; a simulation is a single-threaded deterministic program.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	running bool
}

// New returns an Engine starting at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// ErrPastEvent is returned (via panic recovery in tests) when an event is
// scheduled before the current time.
var ErrPastEvent = errors.New("desim: event scheduled in the past")

// At schedules fn to run at the absolute instant t. Scheduling in the past
// panics: that is always a model bug.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, t, e.now))
	}
	ev := &event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return EventID{ev}
}

// After schedules fn to run d from now. Negative delays panic.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Errorf("%w: delay=%v now=%v", ErrPastEvent, d, e.now))
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a scheduled event. Cancelling an event that already fired
// or was already cancelled is a no-op. Cancel reports whether the event was
// actually removed.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.idx < 0 {
		return false
	}
	heap.Remove(&e.events, ev.idx)
	return true
}

// RunUntil fires all events scheduled at or before t, then advances the
// clock to exactly t. Events at t fire; events after t remain pending.
// Calling it from inside an event panics.
func (e *Engine) RunUntil(t Time) {
	if e.running {
		panic("desim: RunUntil called re-entrantly from inside an event")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.events) > 0 && e.events[0].at <= t {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		ev.fn()
	}
	if e.now < t {
		e.now = t
	}
}

// Ticker invokes fn every period until cancel is called. fn runs first
// after one full period.
func (e *Engine) Ticker(period Duration, fn func()) (cancel func()) {
	if period <= 0 {
		panic("desim: non-positive ticker period")
	}
	stopped := false
	var tick func()
	var id EventID
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			id = e.After(period, tick)
		}
	}
	id = e.After(period, tick)
	return func() {
		stopped = true
		e.Cancel(id)
	}
}
