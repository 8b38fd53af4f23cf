package httpkit

import (
	"slices"
	"sort"
	"time"

	"repro/internal/metrics"
)

// OutlierConfig tunes the balancer's passive outlier detection: every
// routed response feeds a per-replica EWMA of latency and error rate, and
// replicas whose EWMA stands out from the pool median are temporarily
// ejected from picking. Detection is passive — no probes, just the
// traffic the balancer already routes — which is exactly what catches
// gray failures: a replica that still answers, just 10× slower, never
// trips an error-keyed breaker but cannot hide its latency EWMA.
//
// The zero value selects the defaults noted per field; set Disabled to
// turn detection off entirely.
type OutlierConfig struct {
	// Disabled turns outlier detection off.
	Disabled bool
	// LatencyFactor ejects a replica whose latency EWMA exceeds this
	// multiple of the pool median (default 3).
	LatencyFactor float64
	// MinLatencyExcess is the absolute EWMA excess over the peer median a
	// latency ejection additionally requires (default 25ms). A pure ratio
	// trips on noise when the pool is fast — 2ms vs 7ms is cache warmth,
	// not a gray replica — so an outlier must stand out in milliseconds,
	// not just in multiples.
	MinLatencyExcess time.Duration
	// ErrorThreshold ejects a replica whose error-rate EWMA reaches this
	// level while also standing at twice the pool median — an absolute
	// and relative gate together, so a backend-wide error storm (every
	// replica failing alike) ejects nobody. Default 0.5.
	ErrorThreshold float64
	// MinSamples is how many responses a replica must have contributed
	// since (re-)admission before it can be judged (default 20).
	MinSamples int64
	// BaseEjection is the first ejection's duration; consecutive
	// ejections back off linearly (2×, 3×, … capped at 10×) until the
	// replica survives a probation. Default 5s.
	BaseEjection time.Duration
	// MaxEjectedFraction bounds how much of the pool may be ejected at
	// once (default 0.5); at least one replica always stays admissible.
	MaxEjectedFraction float64
	// SweepInterval bounds how often the ejection sweep runs per service
	// (default 250ms). Sweeps ride on the Observe hot path but are
	// rate-limited, so per-response cost stays O(1).
	SweepInterval time.Duration
}

// normalized fills zero fields with defaults.
func (c OutlierConfig) normalized() OutlierConfig {
	if c.LatencyFactor <= 0 {
		c.LatencyFactor = 3
	}
	if c.MinLatencyExcess <= 0 {
		c.MinLatencyExcess = 25 * time.Millisecond
	}
	if c.ErrorThreshold <= 0 {
		c.ErrorThreshold = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.BaseEjection <= 0 {
		c.BaseEjection = 5 * time.Second
	}
	if c.MaxEjectedFraction <= 0 {
		c.MaxEjectedFraction = 0.5
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = 250 * time.Millisecond
	}
	return c
}

// outlierEwmaAlpha is the steady-state EWMA weight (~20-sample memory);
// while a replica warms up the effective weight is 1/samples so the
// first observations aren't drowned by a zero initial value.
const outlierEwmaAlpha = 0.1

// maxEjectionBackoff caps the linear ejection backoff multiplier.
const maxEjectionBackoff = 10

// Observe feeds one routed response's outcome into a replica's EWMAs by
// name — the entry point for callers routing outside the client pipeline
// (the load generator's sessions, steering with Stick); the pipeline
// observes through the service handle it already holds.
func (b *Balancer) Observe(name, addr string, latency time.Duration, failed bool) {
	s := b.service(name)
	s.observe(s.replica(addr), latency, failed)
}

// observe feeds one routed response's outcome into the replica's EWMAs
// and occasionally sweeps the service for outliers. The pipeline calls it
// for every balanced attempt — including cancelled ones, whose
// elapsed-at-cancel is a censored (under-estimating) latency sample that
// still preserves the slow-replica signal.
func (s *balancedService) observe(r *replicaState, latency time.Duration, failed bool) {
	r.mu.Lock()
	r.samples++
	a := outlierEwmaAlpha
	if warm := 1 / float64(r.samples); warm > a {
		a = warm
	}
	r.ewmaLat += (float64(latency) - r.ewmaLat) * a
	f := 0.0
	if failed {
		f = 1
	}
	r.ewmaErr += (f - r.ewmaErr) * a
	r.mu.Unlock()
	s.maybeSweep()
}

// maybeSweep runs the ejection sweep when its interval has lapsed; the
// atomic claim keeps concurrent observers from sweeping twice.
func (s *balancedService) maybeSweep() {
	if s.b.outlier.Disabled {
		return
	}
	now := time.Now().UnixNano()
	last := s.lastSweep.Load()
	if now-last < int64(s.b.outlier.SweepInterval) {
		return
	}
	if !s.lastSweep.CompareAndSwap(last, now) {
		return
	}
	s.sweep()
}

// outlierView is one replica's judged state during a sweep.
type outlierView struct {
	r        *replicaState
	lat, err float64
	// baseLat/baseErr are the leave-one-out medians of the peers this
	// replica is judged against; latOut is the latency verdict.
	baseLat, baseErr float64
	latOut           bool
}

// severity orders outlier candidates: latency ratio over the peer
// baseline plus the error EWMA, so an erroring slow replica outranks a
// merely slow one.
func (v outlierView) severity() float64 {
	ratio := 0.0
	if v.baseLat > 0 {
		ratio = v.lat / v.baseLat
	}
	return ratio + 10*v.err
}

// sweep re-admits replicas whose ejection lapsed (on probation: their
// EWMAs reset so re-ejection needs fresh evidence) and ejects replicas
// whose EWMA stands out from the pool median, bounded so the pool is
// never ejected below one admissible replica.
func (s *balancedService) sweep() {
	cfg := s.b.outlier
	now := time.Now()
	s.mu.Lock()
	states := make([]*replicaState, 0, len(s.addrs))
	for _, addr := range s.addrs {
		if r := s.replicas[addr]; r != nil {
			states = append(states, r)
		}
	}
	s.mu.Unlock()
	if len(states) < 2 {
		return // a lone replica has no pool to stand out from
	}

	ejected := 0
	var judged []outlierView
	for _, r := range states {
		r.mu.Lock()
		if r.ejected.Load() {
			if now.After(r.ejectedUntil) {
				// Probation: re-admit with fresh EWMAs so the replica
				// must mis-behave on new traffic to be ejected again.
				r.ejected.Store(false)
				r.samples, r.ewmaLat, r.ewmaErr = 0, 0, 0
			} else {
				ejected++
				r.mu.Unlock()
				continue
			}
		}
		if r.samples >= cfg.MinSamples {
			judged = append(judged, outlierView{r: r, lat: r.ewmaLat, err: r.ewmaErr})
		} else if r.streak > 0 && r.samples >= 3*cfg.MinSamples/2 {
			// Survived probation: forget the backoff streak.
			r.streak = 0
		}
		r.mu.Unlock()
	}
	if len(judged) < 2 {
		return // an outlier needs peers to stand out from
	}

	// Each candidate is judged against the leave-one-out median of its
	// peers (metrics.PeerOutlier) — a single gray replica in a 2-replica
	// pool cannot drag the baseline toward itself, and a pool-wide
	// degradation (every replica equally bad) ejects nobody.
	lats := make([]float64, len(judged))
	errs := make([]float64, len(judged))
	for i, v := range judged {
		lats[i], errs[i] = v.lat, v.err
	}
	for i := range judged {
		v := &judged[i]
		v.baseLat, v.latOut = metrics.PeerOutlier(lats, i, cfg.LatencyFactor, float64(cfg.MinLatencyExcess))
		v.baseErr = metrics.Median(slices.Delete(slices.Clone(errs), i, i+1))
	}

	// Never eject more than the configured fraction of the pool, and
	// always keep at least one replica admissible.
	maxEject := int(cfg.MaxEjectedFraction * float64(len(states)))
	if maxEject > len(states)-1 {
		maxEject = len(states) - 1
	}

	// Worst offenders first, so the bounded budget goes to the replicas
	// that hurt the most.
	sort.Slice(judged, func(i, j int) bool {
		return judged[i].severity() > judged[j].severity()
	})
	for _, v := range judged {
		if ejected >= maxEject {
			return
		}
		errOut := v.err >= cfg.ErrorThreshold && v.err > 2*v.baseErr
		if !v.latOut && !errOut {
			return // sorted: the rest are milder still
		}
		v.r.mu.Lock()
		v.r.streak++
		v.r.ejections++
		backoffMult := v.r.streak
		if backoffMult > maxEjectionBackoff {
			backoffMult = maxEjectionBackoff
		}
		v.r.ejectedUntil = now.Add(time.Duration(backoffMult) * cfg.BaseEjection)
		v.r.ejected.Store(true)
		v.r.mu.Unlock()
		ejected++
	}
}

// Ejected lists a service's currently-ejected replica addresses.
func (b *Balancer) Ejected(name string) []string {
	s := b.service(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for addr, r := range s.replicas {
		if r.ejected.Load() {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}
