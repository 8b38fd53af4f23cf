// Package scalectl is the scale-up control plane for the real TeaStore
// stack: a closed-loop reconciler that measures each service's saturation
// from its live metrics and drives the replica count toward demand, plus a
// characterizer (characterize.go) that sweeps offered load × replica count
// to measure each service's scale-up curve the way the paper does.
//
// The reconciler scrapes every instance's /metrics.json each tick,
// computes a per-service saturation score from four signals — in-flight
// requests, shed deltas, windowed p99 (from scrape-to-scrape histogram
// bucket deltas, not lifetime aggregates), and open circuit breakers
// pointed at the service — and reconciles the actual replica count toward
// the demand with hysteresis, per-service min/max bounds, and a
// scale-down cooldown. Scale-downs drain: the Target deregisters the
// replica, waits for its in-flight work, then closes it, so planned
// shrinking never fails a request.
//
// The package deliberately does not import the stack: it drives any
// Target, which teastore.Stack satisfies, so the reconciler and the
// characterizer are testable against fakes and reusable for remote
// control planes.
package scalectl

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/httpkit"
	"repro/internal/metrics"
)

// Target is the surface the reconciler scales: a running stack that can
// list its live replicas and add or drain-remove one at runtime.
type Target interface {
	// ServiceNames lists every live service (controlled or not); the
	// reconciler scrapes them all so callers' breaker state against a
	// controlled service is visible.
	ServiceNames() []string
	// ReplicaURLs lists a service's live replica base URLs in boot order.
	ReplicaURLs(service string) []string
	// StartReplica boots and registers one new replica of a running
	// service.
	StartReplica(service string) error
	// ScaleDown drains and stops the newest replica of a service. It must
	// deregister before closing so no request fails during the shrink,
	// and refuse to remove the last replica.
	ScaleDown(ctx context.Context, service string) error
}

// Bounds is one service's replica range.
type Bounds struct {
	Min, Max int
}

// Config tunes the reconciler. Zero fields select the defaults noted per
// field.
type Config struct {
	// Services maps controlled service names to replica bounds. Required.
	Services map[string]Bounds
	// Interval is the scrape-and-decide period (500ms).
	Interval time.Duration
	// ScrapeTimeout bounds one tick's metric collection (2s).
	ScrapeTimeout time.Duration
	// DrainTimeout bounds one scale-down's graceful drain (10s).
	DrainTimeout time.Duration

	// UpThreshold is the saturation score at or above which a service is
	// considered saturated (1.0). The score normalizes each signal so that
	// 1.0 means "at the configured high-water mark".
	UpThreshold float64
	// DownThreshold is the score at or below which a service is considered
	// idle enough to shrink (0.25). The gap between the thresholds is the
	// hysteresis band where the reconciler holds.
	DownThreshold float64
	// UpStableTicks is how many consecutive saturated ticks trigger a
	// scale-up (2) — one noisy sample never adds a replica.
	UpStableTicks int
	// DownStableTicks is how many consecutive idle ticks arm a scale-down
	// (3).
	DownStableTicks int
	// DownCooldown is the minimum time after any scale event before a
	// scale-down fires (30s) — freshly added capacity gets a chance to
	// absorb the load before being taken away.
	DownCooldown time.Duration

	// ReplaceAfterTicks is how many consecutive unhealthy ticks — the
	// replica caller-ejected as an outlier or its windowed p99 standing
	// OutlierP99Factor above its peers' median — trigger a replacement
	// (default 4). Negative disables replacement entirely. Replacement
	// needs the Target to also implement ReplicaDrainer.
	ReplaceAfterTicks int
	// ReplaceCooldown is the minimum time between replacements per
	// service (default 15s) — one swap, then watch whether the pool
	// recovered before swapping again.
	ReplaceCooldown time.Duration
	// OutlierP99Factor is the windowed-p99 multiple of the peer median at
	// which a replica counts as unhealthy (default 3).
	OutlierP99Factor float64

	// InflightHigh is the per-replica mean in-flight count treated as
	// fully saturated (32).
	InflightHigh float64
	// P99High is the windowed p99 latency treated as fully saturated
	// (500ms).
	P99High time.Duration
	// ShedHigh is the shed fraction (sheds/requests per window) treated as
	// fully saturated (0.05).
	ShedHigh float64

	// Client performs the scrapes; nil builds one with breakers and
	// retries off (a failed scrape should be observed, not masked).
	Client *httpkit.Client
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.ScrapeTimeout <= 0 {
		c.ScrapeTimeout = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.UpThreshold <= 0 {
		c.UpThreshold = 1.0
	}
	if c.DownThreshold <= 0 {
		c.DownThreshold = 0.25
	}
	if c.UpStableTicks <= 0 {
		c.UpStableTicks = 2
	}
	if c.DownStableTicks <= 0 {
		c.DownStableTicks = 3
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = 30 * time.Second
	}
	if c.ReplaceAfterTicks == 0 {
		c.ReplaceAfterTicks = 4
	}
	if c.ReplaceCooldown <= 0 {
		c.ReplaceCooldown = 15 * time.Second
	}
	if c.OutlierP99Factor <= 0 {
		c.OutlierP99Factor = 3
	}
	if c.InflightHigh <= 0 {
		c.InflightHigh = 32
	}
	if c.P99High <= 0 {
		c.P99High = 500 * time.Millisecond
	}
	if c.ShedHigh <= 0 {
		c.ShedHigh = 0.05
	}
	return c
}

// Decision is one reconcile verdict for a service.
type Decision struct {
	Action string    `json:"action"` // ActionScaleUp, ActionScaleDown, ActionHold
	Reason string    `json:"reason"`
	Time   time.Time `json:"time"`
}

// Reconciler actions.
const (
	ActionScaleUp   = "scale-up"
	ActionScaleDown = "scale-down"
	ActionReplace   = "replace"
	ActionHold      = "hold"
)

// ServiceStatus is one controlled service's reconciler view.
type ServiceStatus struct {
	Service      string   `json:"service"`
	Min          int      `json:"min"`
	Max          int      `json:"max"`
	Desired      int      `json:"desired"`
	Actual       int      `json:"actual"`
	Score        float64  `json:"score"`
	UpEvents     int64    `json:"upEvents"`
	DownEvents   int64    `json:"downEvents"`
	Replacements int64    `json:"replacements,omitempty"`
	Unhealthy    []string `json:"unhealthy,omitempty"`
	LastDecision Decision `json:"lastDecision"`
}

// Status is the controller's full state, served on GET /status.
type Status struct {
	Ticks    int64           `json:"ticks"`
	Services []ServiceStatus `json:"services"`
}

// sample is one instance's counters at the previous scrape, the baseline
// windowed signals are computed against.
type sample struct {
	requests int64
	shed     int64
	buckets  map[int64]int64 // bucket low bound → cumulative count
}

// serviceState is the reconciler's memory for one controlled service.
type serviceState struct {
	desired    int
	upStreak   int
	downStreak int
	lastScale  time.Time
	last       Decision
	score      float64
	actual     int
	upEvents   int64
	downEvents int64
	prev       map[string]sample // replica URL → previous scrape

	health          map[string]bool // replica URL → healthy last tick
	unhealthyStreak map[string]int  // replica URL → consecutive unhealthy ticks
	lastReplace     time.Time
	replacements    int64
}

// Controller runs the reconcile loop over a Target.
type Controller struct {
	target Target
	cfg    Config
	client *httpkit.Client

	mu    sync.Mutex
	ticks int64
	state map[string]*serviceState
}

// New builds a controller; it does not start reconciling until Run (or
// Start) is called. Tick is exported for deterministic tests.
func New(target Target, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Services) == 0 {
		return nil, fmt.Errorf("scalectl: Config.Services is empty — nothing to control")
	}
	for name, b := range cfg.Services {
		if b.Min < 1 || b.Max < b.Min {
			return nil, fmt.Errorf("scalectl: bad bounds %d..%d for %s (need 1 ≤ min ≤ max)", b.Min, b.Max, name)
		}
	}
	client := cfg.Client
	if client == nil {
		client = httpkit.NewClient(cfg.ScrapeTimeout, httpkit.WithoutRetries(), httpkit.WithoutBreakers())
	}
	c := &Controller{target: target, cfg: cfg, client: client, state: map[string]*serviceState{}}
	for name := range cfg.Services {
		c.state[name] = &serviceState{
			prev:            map[string]sample{},
			health:          map[string]bool{},
			unhealthyStreak: map[string]int{},
		}
	}
	return c, nil
}

// Run reconciles every Interval until the context ends.
func (c *Controller) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Tick(ctx)
		}
	}
}

// Start launches Run in a goroutine; the returned stop blocks until the
// loop (including any in-progress drain) has exited.
func (c *Controller) Start() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// Tick performs one reconcile pass: scrape everything, then score and
// (maybe) scale each controlled service.
func (c *Controller) Tick(ctx context.Context) {
	scrapeCtx, cancel := context.WithTimeout(ctx, c.cfg.ScrapeTimeout)
	snaps, openDest := c.scrapeAll(scrapeCtx)
	cancel()
	ejected := ejectedByCallers(snaps)

	names := make([]string, 0, len(c.cfg.Services))
	for name := range c.cfg.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.reconcileService(ctx, name, c.cfg.Services[name], snaps[name], openDest, ejected[name])
	}
	c.mu.Lock()
	c.ticks++
	c.mu.Unlock()
}

// instanceSnap pairs one replica's URL with its scraped metrics.
type instanceSnap struct {
	url  string
	snap httpkit.MetricsSnapshot
	ok   bool
}

// scrapeAll collects every live instance's /metrics.json and the set of
// replica addresses some caller's breaker currently holds non-closed.
func (c *Controller) scrapeAll(ctx context.Context) (map[string][]instanceSnap, map[string]bool) {
	snaps := map[string][]instanceSnap{}
	openDest := map[string]bool{}
	for _, svc := range c.target.ServiceNames() {
		for _, url := range c.target.ReplicaURLs(svc) {
			is := instanceSnap{url: url}
			if err := c.client.GetJSON(ctx, url+"/metrics.json", &is.snap); err == nil {
				is.ok = true
				for dest, bs := range is.snap.Resilience.Breakers {
					if bs.State != "closed" {
						openDest[dest] = true
					}
				}
			}
			snaps[svc] = append(snaps[svc], is)
		}
	}
	return snaps, openDest
}

// reconcileService scores one service and applies at most one replica
// step, honouring bounds, hysteresis, and the scale-down cooldown.
// Health-driven replacement is checked first: a persistently gray
// replica is a correctness problem, not a capacity one, so it beats the
// saturation logic to the punch.
func (c *Controller) reconcileService(ctx context.Context, name string, b Bounds, snaps []instanceSnap, openDest, ejected map[string]bool) {
	c.mu.Lock()
	st := c.state[name]
	c.mu.Unlock()

	actual := len(snaps)
	score, scraped, signals, windows := c.score(st, name, snaps, openDest)

	c.mu.Lock()
	st.actual = actual
	st.score = score
	c.mu.Unlock()

	now := time.Now()
	replaceURL, replaceWhy := c.checkHealth(st, windows, ejected, now)
	switch {
	case actual == 0:
		c.record(st, ActionHold, "no live replicas visible", now, clamp(actual, b))
	case actual < b.Min:
		c.scaleUp(st, name, fmt.Sprintf("%d replicas below min %d", actual, b.Min), now, b)
	case actual > b.Max:
		c.scaleDown(ctx, st, name, fmt.Sprintf("%d replicas above max %d", actual, b.Max), now, b)
	case !scraped:
		// No replica answered: the score is blind, so hold rather than
		// flap on missing data.
		c.record(st, ActionHold, "metrics scrape failed for every replica", now, clamp(actual, b))
	case replaceURL != "" && actual >= 2:
		// Replacing needs a peer pool: with one replica there is no
		// baseline to call it unhealthy against, and caller ejection
		// keeps at least one replica admissible anyway.
		c.replaceReplica(ctx, st, name, replaceURL, replaceWhy, now, b)
	default:
		c.mu.Lock()
		switch {
		case score >= c.cfg.UpThreshold:
			st.upStreak++
			st.downStreak = 0
		case score <= c.cfg.DownThreshold:
			st.downStreak++
			st.upStreak = 0
		default:
			st.upStreak, st.downStreak = 0, 0
		}
		up := st.upStreak >= c.cfg.UpStableTicks && actual < b.Max
		down := st.downStreak >= c.cfg.DownStableTicks && actual > b.Min &&
			now.Sub(st.lastScale) >= c.cfg.DownCooldown
		c.mu.Unlock()
		switch {
		case up:
			c.scaleUp(st, name, fmt.Sprintf("saturated: score %.2f ≥ %.2f for %d ticks (%s)",
				score, c.cfg.UpThreshold, c.cfg.UpStableTicks, signals), now, b)
		case down:
			c.scaleDown(ctx, st, name, fmt.Sprintf("idle: score %.2f ≤ %.2f for %d ticks past cooldown",
				score, c.cfg.DownThreshold, c.cfg.DownStableTicks), now, b)
		default:
			c.record(st, ActionHold, fmt.Sprintf("score %.2f (%s)", score, signals), now, clamp(actual, b))
		}
	}
}

// score computes the saturation score: the max of the four normalized
// signals, so any single saturated dimension is enough to scale. scraped
// is false when no replica answered. The returned signals string makes
// decisions explainable in /status and the breakdown tables, and the
// per-replica windows feed the health judgement.
func (c *Controller) score(st *serviceState, name string, snaps []instanceSnap, openDest map[string]bool) (score float64, scraped bool, signals string, windows []replicaWindow) {
	var inflight int64
	var dReq, dShed int64
	var p99w time.Duration
	breakerOpen := false
	prev := map[string]sample{}
	var windowPrev, windowCur []map[int64]int64
	n := 0
	for _, is := range snaps {
		if !is.ok {
			continue
		}
		n++
		inflight += is.snap.Resilience.Inflight
		addr := hostOf(is.url)
		if openDest[addr] {
			breakerOpen = true
		}
		cur := sample{
			requests: is.snap.Requests,
			shed:     is.snap.Resilience.Shed,
			buckets:  bucketMap(is.snap.OverallBuckets),
		}
		c.mu.Lock()
		old, seen := st.prev[is.url]
		c.mu.Unlock()
		if seen {
			dReq += max64(0, cur.requests-old.requests)
			dShed += max64(0, cur.shed-old.shed)
			windowPrev = append(windowPrev, old.buckets)
			windowCur = append(windowCur, cur.buckets)
			windows = append(windows, replicaWindow{
				url:  is.url,
				dReq: max64(0, cur.requests-old.requests),
				p99:  windowedP99([]map[int64]int64{old.buckets}, []map[int64]int64{cur.buckets}),
			})
		}
		prev[is.url] = cur
	}
	c.mu.Lock()
	st.prev = prev
	c.mu.Unlock()
	if n == 0 {
		return 0, false, "no data", nil
	}

	inflightAvg := float64(inflight) / float64(n)
	shedFrac := 0.0
	if dReq > 0 {
		shedFrac = float64(dShed) / float64(dReq)
	}
	p99w = windowedP99(windowPrev, windowCur)

	score = maxf(
		inflightAvg/c.cfg.InflightHigh,
		shedFrac/c.cfg.ShedHigh,
		float64(p99w)/float64(c.cfg.P99High),
	)
	if breakerOpen {
		score = maxf(score, 1)
	}
	signals = fmt.Sprintf("inflight %.1f/replica, shed %.1f%%, p99 %.0fms, breakers open=%v",
		inflightAvg, 100*shedFrac, float64(p99w)/1e6, breakerOpen)
	return score, true, signals, windows
}

// scaleUp asks the target for one more replica and records the outcome.
func (c *Controller) scaleUp(st *serviceState, name, reason string, now time.Time, b Bounds) {
	if err := c.target.StartReplica(name); err != nil {
		c.record(st, ActionHold, fmt.Sprintf("scale-up wanted (%s) but failed: %v", reason, err), now, clamp(st.actual, b))
		return
	}
	c.mu.Lock()
	st.upEvents++
	st.lastScale = now
	st.upStreak, st.downStreak = 0, 0
	c.mu.Unlock()
	c.record(st, ActionScaleUp, reason, now, clamp(st.actual+1, b))
}

// scaleDown asks the target to drain one replica and records the outcome.
// The drain runs inside this tick — serializing scale operations keeps
// the loop from racing itself.
func (c *Controller) scaleDown(ctx context.Context, st *serviceState, name, reason string, now time.Time, b Bounds) {
	drainCtx, cancel := context.WithTimeout(ctx, c.cfg.DrainTimeout)
	defer cancel()
	if err := c.target.ScaleDown(drainCtx, name); err != nil {
		c.record(st, ActionHold, fmt.Sprintf("scale-down wanted (%s) but failed: %v", reason, err), now, clamp(st.actual, b))
		return
	}
	c.mu.Lock()
	st.downEvents++
	st.lastScale = now
	st.upStreak, st.downStreak = 0, 0
	c.mu.Unlock()
	c.record(st, ActionScaleDown, reason, now, clamp(st.actual-1, b))
}

// record stores a decision and the desired replica count it implies.
func (c *Controller) record(st *serviceState, action, reason string, now time.Time, desired int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st.last = Decision{Action: action, Reason: reason, Time: now}
	st.desired = desired
}

// Status snapshots the controller's per-service state, sorted by name.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Status{Ticks: c.ticks}
	for name, st := range c.state {
		b := c.cfg.Services[name]
		out.Services = append(out.Services, ServiceStatus{
			Service: name, Min: b.Min, Max: b.Max,
			Desired: st.desired, Actual: st.actual, Score: st.score,
			UpEvents: st.upEvents, DownEvents: st.downEvents,
			Replacements: st.replacements, Unhealthy: unhealthyList(st),
			LastDecision: st.last,
		})
	}
	sort.Slice(out.Services, func(i, j int) bool { return out.Services[i].Service < out.Services[j].Service })
	return out
}

// Gauges exports the reconciler's desired/actual replica counts and
// saturation scores — install on an httpkit.Server via SetExtraMetrics.
func (c *Controller) Gauges() []httpkit.Gauge {
	status := c.Status()
	out := make([]httpkit.Gauge, 0, 4*len(status.Services))
	for _, s := range status.Services {
		labels := map[string]string{"service": s.Service}
		out = append(out,
			httpkit.Gauge{Name: "teastore_replicas_desired", Help: "Replica count the reconciler is driving toward.", Labels: labels, Value: float64(s.Desired)},
			httpkit.Gauge{Name: "teastore_replicas_actual", Help: "Live replica count observed by the reconciler.", Labels: labels, Value: float64(s.Actual)},
			httpkit.Gauge{Name: "teastore_saturation_score", Help: "Per-service saturation score (1.0 = at the scale-up threshold).", Labels: labels, Value: s.Score},
			httpkit.Gauge{Name: "teastore_replacements_total", Help: "Unhealthy replicas replaced by the reconciler.", Labels: labels, Value: float64(s.Replacements)},
		)
	}
	c.mu.Lock()
	for name, st := range c.state {
		urls := make([]string, 0, len(st.health))
		for url := range st.health {
			urls = append(urls, url)
		}
		sort.Strings(urls)
		for _, url := range urls {
			v := 1.0
			if !st.health[url] {
				v = 0
			}
			out = append(out, httpkit.Gauge{
				Name:   "teastore_replica_health",
				Help:   "Reconciler's per-replica health verdict (1 healthy, 0 unhealthy).",
				Labels: map[string]string{"service": name, "replica": hostOf(url)},
				Value:  v,
			})
		}
	}
	c.mu.Unlock()
	return out
}

// Mux serves the controller's HTTP API: GET /status with the full
// reconciler state.
func (c *Controller) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		httpkit.WriteJSON(w, http.StatusOK, c.Status())
	})
	return mux
}

// windowedP99 estimates the p99 latency of the scrape window from
// cumulative histogram bucket deltas, merged across replicas. Lifetime
// percentiles go stale the moment load changes; the delta distribution is
// exactly the traffic since the last tick.
func windowedP99(prev, cur []map[int64]int64) time.Duration {
	merged := map[int64]int64{}
	for i := range cur {
		for low, count := range cur[i] {
			if d := count - prev[i][low]; d > 0 {
				merged[low] += d
			}
		}
	}
	var total int64
	lows := make([]int64, 0, len(merged))
	for low, count := range merged {
		total += count
		lows = append(lows, low)
	}
	if total == 0 {
		return 0
	}
	sort.Slice(lows, func(i, j int) bool { return lows[i] < lows[j] })
	rank := (total*99 + 99) / 100 // ceil(0.99 * total)
	var seen int64
	for _, low := range lows {
		seen += merged[low]
		if seen >= rank {
			return time.Duration(low)
		}
	}
	return time.Duration(lows[len(lows)-1])
}

// bucketMap indexes histogram buckets by their low bound.
func bucketMap(bs []metrics.Bucket) map[int64]int64 {
	out := make(map[int64]int64, len(bs))
	for _, b := range bs {
		out[b.Low] = b.Count
	}
	return out
}

// hostOf strips the scheme from a base URL, yielding the host:port form
// breaker maps are keyed by.
func hostOf(url string) string {
	for _, prefix := range []string{"http://", "https://"} {
		if len(url) > len(prefix) && url[:len(prefix)] == prefix {
			return url[len(prefix):]
		}
	}
	return url
}

func clamp(v int, b Bounds) int {
	if v < b.Min {
		return b.Min
	}
	if v > b.Max {
		return b.Max
	}
	return v
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxf(vs ...float64) float64 {
	out := vs[0]
	for _, v := range vs[1:] {
		if v > out {
			out = v
		}
	}
	return out
}
