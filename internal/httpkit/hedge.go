package httpkit

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HedgePolicy tunes budgeted request hedging on balanced idempotent
// calls: when the primary attempt outlives an adaptive delay (a high
// quantile of the service's recent latency), a second attempt is fired
// at a different replica and the first acceptable response wins, with
// the loser's context cancelled. Hedging tames the tail a gray-failing
// replica creates — the unlucky calls routed to it get a second chance
// instead of waiting out the full degraded latency — while the budget
// caps the extra load at a small fraction of traffic. The zero value
// selects the defaults noted per field.
type HedgePolicy struct {
	// MaxFraction caps hedges as a fraction of hedge-eligible calls
	// (default 0.05). The budget also delays the first hedge until
	// enough calls have been seen for the fraction to be meaningful.
	MaxFraction float64
	// Quantile is the latency quantile the hedge delay tracks
	// (default 0.95): hedging the slowest ~5% of calls pairs naturally
	// with a 5% budget.
	Quantile float64
	// MinDelay and MaxDelay clamp the adaptive delay (defaults 1ms, 1s).
	MinDelay time.Duration
	MaxDelay time.Duration
	// MinSamples is how many latency samples a service needs before
	// hedging arms (default 16) — with no baseline there is no "slow".
	MinSamples int
}

// normalized fills zero fields with defaults.
func (p HedgePolicy) normalized() HedgePolicy {
	if p.MaxFraction <= 0 {
		p.MaxFraction = 0.05
	}
	if p.Quantile <= 0 || p.Quantile >= 1 {
		p.Quantile = 0.95
	}
	if p.MinDelay <= 0 {
		p.MinDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 16
	}
	return p
}

// hedgeRingSize is the per-service latency reservoir the adaptive delay
// is computed from.
const hedgeRingSize = 128

// hedgeRecomputeEvery bounds how often the quantile is re-sorted; in
// between, armDelay reads the cached value lock-free.
const hedgeRecomputeEvery = 16

// hedger tracks per-service latency quantiles and the global hedge
// budget for one client.
type hedger struct {
	pol HedgePolicy

	mu       sync.Mutex
	services map[string]*hedgeLatencies

	eligible atomic.Int64 // hedge-eligible calls seen
	issued   atomic.Int64 // hedges charged against the budget
}

// hedgeLatencies is one destination service's recent-latency reservoir.
type hedgeLatencies struct {
	mu    sync.Mutex
	ring  [hedgeRingSize]int64
	n     int
	idx   int
	total int64
	delay atomic.Int64 // cached quantile (ns); 0 = not armed yet
}

func newHedger(pol HedgePolicy) *hedger {
	return &hedger{pol: pol.normalized(), services: map[string]*hedgeLatencies{}}
}

// tracker returns (allocating) the latency reservoir for a service.
func (h *hedger) tracker(service string) *hedgeLatencies {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.services[service]
	if t == nil {
		t = &hedgeLatencies{}
		h.services[service] = t
	}
	return t
}

// observeLatency feeds one decisive successful response's latency into
// the reservoir, periodically recomputing the cached quantile.
func (h *hedger) observeLatency(service string, d time.Duration) {
	t := h.tracker(service)
	t.mu.Lock()
	t.ring[t.idx] = int64(d)
	t.idx = (t.idx + 1) % hedgeRingSize
	if t.n < hedgeRingSize {
		t.n++
	}
	t.total++
	if t.n >= h.pol.MinSamples && (t.delay.Load() == 0 || t.total%hedgeRecomputeEvery == 0) {
		sorted := make([]int64, t.n)
		copy(sorted, t.ring[:t.n])
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		q := int(h.pol.Quantile * float64(t.n-1))
		t.delay.Store(sorted[q])
	}
	t.mu.Unlock()
}

// armDelay counts one hedge-eligible call and returns the adaptive hedge
// delay, or false while the service has no latency baseline yet.
func (h *hedger) armDelay(service string) (time.Duration, bool) {
	h.eligible.Add(1)
	d := h.tracker(service).delay.Load()
	if d == 0 {
		return 0, false
	}
	delay := time.Duration(d)
	if delay < h.pol.MinDelay {
		delay = h.pol.MinDelay
	}
	if delay > h.pol.MaxDelay {
		delay = h.pol.MaxDelay
	}
	return delay, true
}

// spend claims one hedge from the budget; false when the cap is reached.
// The formula keeps hedges+1 within MaxFraction of eligible calls, which
// also means no hedge fires before 1/MaxFraction calls have been seen.
func (h *hedger) spend() bool {
	for {
		e := h.eligible.Load()
		i := h.issued.Load()
		if float64(i+1) > h.pol.MaxFraction*float64(e) {
			return false
		}
		if h.issued.CompareAndSwap(i, i+1) {
			return true
		}
	}
}

// refund returns an unspent claim (the hedge could not actually launch).
func (h *hedger) refund() { h.issued.Add(-1) }
