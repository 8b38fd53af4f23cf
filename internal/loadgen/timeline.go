package loadgen

// Windowed per-second load timeline: the gameday harness needs to see
// *when* latency degraded and recovered, not just the run's aggregate —
// a fault injected mid-run and cleared before the end is invisible in
// whole-run percentiles but obvious in the per-second windows.
//
// Windows bucket by the second of the request's *intended arrival*. A
// request that stalls for two seconds is pain suffered by the window that
// wanted to issue it, not by the window it happened to finish in —
// completion-time bucketing smeared a stall forward onto innocent windows
// and credited the stalled window as healthy.

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// Window is one second of the measured run, keyed by request-start time.
// Latency percentiles cover successful requests only; Requests counts
// every completed operation including failures, so error bursts don't
// masquerade as quiet seconds.
type Window struct {
	// Second is the window's offset from Result.MeasureStart.
	Second   int   `json:"second"`
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Shed     int64 `json:"shed"`
	// Offered counts intended arrivals falling into this window — the
	// demand axis. Under the closed policy demand is whatever the
	// population managed to ask for, so it tracks Requests.
	Offered int64 `json:"offered,omitempty"`
	// Dropped counts intended arrivals the open policy could not
	// dispatch because its connection pool was exhausted. Never silently
	// skipped: a drop is demand the stack did not even get to refuse.
	Dropped int64 `json:"dropped,omitempty"`
	// P50Ns and P99Ns are the window's latency percentiles in
	// nanoseconds (0 when the window saw no successful request).
	P50Ns int64 `json:"p50Ns"`
	P99Ns int64 `json:"p99Ns"`
}

// P99 returns the window's p99 as a duration.
func (w Window) P99() time.Duration { return time.Duration(w.P99Ns) }

// P50 returns the window's p50 as a duration.
func (w Window) P50() time.Duration { return time.Duration(w.P50Ns) }

// timeline accumulates per-second histograms across all connections. One
// mutex is plenty: a load run completes a few thousand requests per
// second at most, far below contention territory.
type timeline struct {
	mu    sync.Mutex
	start time.Time
	end   time.Time
	slots []*timeslot
}

type timeslot struct {
	hist    metrics.Histogram
	errors  int64
	shed    int64
	offered int64
	dropped int64
}

// begin anchors the timeline at the measurement start; records arriving
// before begin are dropped.
func (t *timeline) begin(at time.Time) {
	t.mu.Lock()
	t.start = at
	t.end = time.Time{}
	t.slots = t.slots[:0]
	t.mu.Unlock()
}

// finish marks the measurement end. windows() then reports only the
// complete seconds: the trailing partial window holds a biased sample
// (only the requests that started in its fraction of a second) and, fed
// into gating, skews the final-window p99 on every run whose duration
// isn't an exact whole second.
func (t *timeline) finish(at time.Time) {
	t.mu.Lock()
	t.end = at
	t.mu.Unlock()
}

// slot returns (growing the run as needed) the window containing at.
// Caller holds t.mu.
func (t *timeline) slot(at time.Time) *timeslot {
	if t.start.IsZero() {
		return nil
	}
	idx := int(at.Sub(t.start) / time.Second)
	if idx < 0 {
		return nil
	}
	for len(t.slots) <= idx {
		t.slots = append(t.slots, &timeslot{})
	}
	return t.slots[idx]
}

// record files one completed request into the window of its *start*
// time. Failed requests count but contribute no latency sample.
func (t *timeline) record(startedAt time.Time, latNs int64, failed bool) {
	t.mu.Lock()
	if s := t.slot(startedAt); s != nil {
		if failed {
			s.errors++
		} else {
			s.hist.Record(latNs)
		}
	}
	t.mu.Unlock()
}

// recordShed files one load-shed (503 + Retry-After) into at's window.
func (t *timeline) recordShed(at time.Time) {
	t.mu.Lock()
	if s := t.slot(at); s != nil {
		s.shed++
	}
	t.mu.Unlock()
}

// recordOffered files one intended arrival into its scheduled window.
func (t *timeline) recordOffered(at time.Time) {
	t.mu.Lock()
	if s := t.slot(at); s != nil {
		s.offered++
	}
	t.mu.Unlock()
}

// recordDropped files one undispatchable intended arrival.
func (t *timeline) recordDropped(at time.Time) {
	t.mu.Lock()
	if s := t.slot(at); s != nil {
		s.dropped++
	}
	t.mu.Unlock()
}

// windows snapshots the timeline as one Window per complete elapsed
// second. When finish was called, the trailing partial window (and any
// starts recorded beyond it) is dropped; without it every recorded slot
// is reported.
func (t *timeline) windows() []Window {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.slots)
	if !t.end.IsZero() {
		if full := int(t.end.Sub(t.start) / time.Second); full < n {
			n = full
		}
	}
	if n < 0 {
		n = 0
	}
	out := make([]Window, n)
	for i, s := range t.slots[:n] {
		out[i] = Window{
			Second:   i,
			Requests: s.hist.Count() + s.errors,
			Errors:   s.errors,
			Shed:     s.shed,
			Offered:  s.offered,
			Dropped:  s.dropped,
			P50Ns:    s.hist.Percentile(50),
			P99Ns:    s.hist.Percentile(99),
		}
	}
	return out
}
