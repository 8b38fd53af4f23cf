package httpkit

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// observeN feeds n synthetic responses for one replica into the
// balancer's outlier tracker.
func observeN(b *Balancer, service, addr string, n int, lat time.Duration, failed bool) {
	for i := 0; i < n; i++ {
		b.Observe(service, addr, lat, failed)
	}
}

// testOutlierBalancer builds a balancer over a static pool with a fast
// sweep and primes its candidate cache.
func testOutlierBalancer(t *testing.T, addrs []string, cfg OutlierConfig) *Balancer {
	t.Helper()
	cfg.SweepInterval = time.Nanosecond // judge on (almost) every Observe
	b := NewBalancer(&staticResolver{addrs: addrs}, BalancerConfig{Outlier: cfg})
	if _, err := b.candidates(context.Background(), "svc"); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOutlierEjectsSlowReplica(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1"}
	b := testOutlierBalancer(t, addrs, OutlierConfig{MinSamples: 10})

	observeN(b, "svc", "a:1", 20, 5*time.Millisecond, false)
	observeN(b, "svc", "b:1", 20, 6*time.Millisecond, false)
	observeN(b, "svc", "c:1", 20, 100*time.Millisecond, false) // 10×+ the median

	ejected := b.Ejected("svc")
	if len(ejected) != 1 || ejected[0] != "c:1" {
		t.Fatalf("ejected = %v, want [c:1]", ejected)
	}
	// Picks must skip the ejected replica entirely.
	for i := 0; i < 50; i++ {
		if got := b.pick("svc", addrs, nil, "", true); got == "c:1" {
			t.Fatalf("pick returned ejected replica on draw %d", i)
		}
	}
}

func TestOutlierEjectsErrorStormReplicaOnly(t *testing.T) {
	addrs := []string{"a:1", "b:1"}
	b := testOutlierBalancer(t, addrs, OutlierConfig{MinSamples: 10})

	// One replica failing hard stands out against a healthy sibling…
	observeN(b, "svc", "a:1", 30, 5*time.Millisecond, false)
	observeN(b, "svc", "b:1", 30, 5*time.Millisecond, true)
	if ejected := b.Ejected("svc"); len(ejected) != 1 || ejected[0] != "b:1" {
		t.Fatalf("ejected = %v, want [b:1]", ejected)
	}

	// …but a pool-wide error storm (backend down, not a replica outlier)
	// ejects nobody: the relative gate sees no one standing out.
	b2 := testOutlierBalancer(t, addrs, OutlierConfig{MinSamples: 10})
	observeN(b2, "svc", "a:1", 30, 5*time.Millisecond, true)
	observeN(b2, "svc", "b:1", 30, 5*time.Millisecond, true)
	if ejected := b2.Ejected("svc"); len(ejected) != 0 {
		t.Fatalf("pool-wide error storm ejected %v, want none", ejected)
	}
}

// TestOutlierEjectionFloor: the sweep must never eject the pool below
// one admissible replica, no matter how many replicas look terrible.
func TestOutlierEjectionFloor(t *testing.T) {
	addrs := []string{"a:1", "b:1"}
	b := testOutlierBalancer(t, addrs, OutlierConfig{MinSamples: 10})

	observeN(b, "svc", "a:1", 20, 5*time.Millisecond, false)
	observeN(b, "svc", "b:1", 20, 500*time.Millisecond, false)
	if ejected := b.Ejected("svc"); len(ejected) != 1 {
		t.Fatalf("ejected = %v, want exactly one", ejected)
	}
	// Now the survivor turns terrible too — with b:1 already out, a:1
	// must stay admissible (maxEject = pool-1).
	observeN(b, "svc", "a:1", 40, time.Second, false)
	if ejected := b.Ejected("svc"); len(ejected) > 1 {
		t.Fatalf("pool ejected below one admissible replica: %v", ejected)
	}
	if got := b.pick("svc", addrs, nil, "", true); got != "a:1" {
		t.Fatalf("pick = %q, want the one admissible replica a:1", got)
	}

	// Larger pool: 4 replicas, 3 of them awful — the 0.5 fraction caps
	// ejection at 2.
	addrs4 := []string{"a:1", "b:1", "c:1", "d:1"}
	b4 := testOutlierBalancer(t, addrs4, OutlierConfig{MinSamples: 10})
	observeN(b4, "svc", "a:1", 20, 5*time.Millisecond, false)
	observeN(b4, "svc", "b:1", 20, 800*time.Millisecond, false)
	observeN(b4, "svc", "c:1", 20, 900*time.Millisecond, false)
	observeN(b4, "svc", "d:1", 20, time.Second, false)
	if ejected := b4.Ejected("svc"); len(ejected) > 2 {
		t.Fatalf("ejected %v replicas, fraction cap is 2 of 4", ejected)
	}
}

func TestOutlierProbationReadmits(t *testing.T) {
	addrs := []string{"a:1", "b:1"}
	b := testOutlierBalancer(t, addrs, OutlierConfig{MinSamples: 5, BaseEjection: 30 * time.Millisecond})

	observeN(b, "svc", "a:1", 10, 5*time.Millisecond, false)
	observeN(b, "svc", "b:1", 10, 200*time.Millisecond, false)
	if ejected := b.Ejected("svc"); len(ejected) != 1 {
		t.Fatalf("ejected = %v, want one", ejected)
	}
	time.Sleep(50 * time.Millisecond)
	// Any observation triggers the sweep that re-admits.
	b.Observe("svc", "a:1", 5*time.Millisecond, false)
	if ejected := b.Ejected("svc"); len(ejected) != 0 {
		t.Fatalf("replica not re-admitted after ejection lapsed: %v", ejected)
	}
	// On probation with reset EWMAs it takes MinSamples fresh bad
	// responses to be ejected again.
	observeN(b, "svc", "b:1", 10, 200*time.Millisecond, false)
	if ejected := b.Ejected("svc"); len(ejected) != 1 {
		t.Fatalf("misbehaving probationer not re-ejected: %v", ejected)
	}
}

// TestOutlierSnapshotCounters: ejection state and EWMAs surface in the
// replica snapshot for /metrics.json and the autoscaler.
func TestOutlierSnapshotCounters(t *testing.T) {
	addrs := []string{"a:1", "b:1"}
	b := testOutlierBalancer(t, addrs, OutlierConfig{MinSamples: 5})
	observeN(b, "svc", "a:1", 10, 5*time.Millisecond, false)
	observeN(b, "svc", "b:1", 10, 200*time.Millisecond, false)

	snap := b.Snapshot()["svc"]
	bad := snap["b:1"]
	if !bad.Ejected || bad.Ejections != 1 {
		t.Fatalf("b:1 snapshot = %+v, want ejected with 1 ejection", bad)
	}
	if bad.EwmaLatencyMs < 100 {
		t.Fatalf("b:1 EWMA latency %.1fms, want ≈200ms", bad.EwmaLatencyMs)
	}
	if good := snap["a:1"]; good.Ejected || good.Ejections != 0 {
		t.Fatalf("a:1 snapshot = %+v, want healthy", good)
	}
}

// TestOutlierEjectionRaceHammer runs picks, observations, snapshots, and
// sweeps concurrently; meaningful under -race.
func TestOutlierEjectionRaceHammer(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1"}
	b := testOutlierBalancer(t, addrs, OutlierConfig{MinSamples: 5, BaseEjection: time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				addr := addrs[i%len(addrs)]
				lat := 5 * time.Millisecond
				if addr == "c:1" {
					lat = 500 * time.Millisecond
				}
				b.Observe("svc", addr, lat, i%7 == 0)
				if got := b.pick("svc", addrs, nil, "", true); got == "" {
					t.Error("pick returned nothing")
					return
				}
				release := b.acquire("svc", addr)
				release()
				if i%13 == 0 {
					b.Snapshot()
					b.Ejected("svc")
				}
			}
		}(w)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestChaosUntilAutoExpires(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "true"})
	})
	s := startTestServer(t, mux)
	s.SetChaos(ChaosConfig{ErrorRate: 1}.For(80 * time.Millisecond))

	c := NewClient(2*time.Second, WithoutRetries(), WithoutBreakers())
	if err := c.GetJSON(context.Background(), s.URL()+"/ping", nil); err == nil {
		t.Fatal("chaos active: call should fail")
	}
	time.Sleep(120 * time.Millisecond)
	if err := c.GetJSON(context.Background(), s.URL()+"/ping", nil); err != nil {
		t.Fatalf("chaos past its bound still injecting: %v", err)
	}
	if got := s.Chaos(); got.enabled() {
		t.Fatalf("expired chaos still installed: %+v", got)
	}
}

// TestHedgeRescuesStalledCall: a rare stall on the primary is raced by a
// hedge to the sibling replica; the fast response wins.
func TestHedgeRescuesStalledCall(t *testing.T) {
	var stalls atomic.Int64
	newReplica := func() *Server {
		var n atomic.Int64
		mux := http.NewServeMux()
		mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1)%25 == 0 { // 4% of this replica's calls stall
				stalls.Add(1)
				select {
				case <-time.After(300 * time.Millisecond):
				case <-r.Context().Done():
					return
				}
			}
			WriteJSON(w, http.StatusOK, map[string]string{"ok": "true"})
		})
		return startTestServer(t, mux)
	}
	r1, r2 := newReplica(), newReplica()
	res := &staticResolver{addrs: []string{r1.Addr(), r2.Addr()}}
	c := NewClient(5*time.Second,
		WithBalancer(NewBalancer(res, BalancerConfig{})),
		// Generous budget: this test exercises the rescue, not the cap.
		WithHedge(HedgePolicy{MaxFraction: 0.25, MinSamples: 8}),
	)

	const calls = 200
	var slow atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls/4; i++ {
				start := time.Now()
				if err := c.GetJSON(context.Background(), BalancedURL("echo")+"/ping", nil); err != nil {
					t.Error(err)
					return
				}
				if time.Since(start) > 250*time.Millisecond {
					slow.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	if c.Hedges() == 0 {
		t.Fatal("no hedges fired against stalling replicas")
	}
	// ~8 calls stall for 300ms; hedges should rescue nearly all of them.
	// Allow a couple of unlucky double-stalls or budget misses.
	if got := slow.Load(); got > 3 {
		t.Fatalf("%d calls exceeded 250ms despite hedging (stalls=%d, hedges=%d)",
			got, stalls.Load(), c.Hedges())
	}
}

// TestHedgeBudgetCapsRate: with a delay that fires on every call, the
// budget must keep launched hedges within MaxFraction of eligible calls.
func TestHedgeBudgetCapsRate(t *testing.T) {
	newReplica := func() *Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(5 * time.Millisecond)
			WriteJSON(w, http.StatusOK, map[string]string{"ok": "true"})
		})
		return startTestServer(t, mux)
	}
	r1, r2 := newReplica(), newReplica()
	res := &staticResolver{addrs: []string{r1.Addr(), r2.Addr()}}
	c := NewClient(5*time.Second,
		WithBalancer(NewBalancer(res, BalancerConfig{})),
		// MaxDelay below the service time: every armed call wants to hedge.
		WithHedge(HedgePolicy{MaxFraction: 0.05, MinSamples: 4, MaxDelay: time.Millisecond}),
	)
	const calls = 200
	for i := 0; i < calls; i++ {
		if err := c.GetJSON(context.Background(), BalancedURL("echo")+"/ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.ResilienceSnapshot()
	if snap.Hedges == 0 {
		t.Fatal("budget test needs hedges to fire at all")
	}
	limit := int64(0.05*float64(snap.HedgeEligible)) + 1
	if snap.Hedges > limit {
		t.Fatalf("hedges %d exceed budget %d of %d eligible", snap.Hedges, limit, snap.HedgeEligible)
	}
}

// TestHedgeLoserCancelledNoLeak: when the hedge wins, the stalled
// primary must be cancelled — no goroutine leak, no stuck in-flight
// accounting, and no latency sample on the loser's server.
func TestHedgeLoserCancelledNoLeak(t *testing.T) {
	var cancelled atomic.Int64
	slowMux := http.NewServeMux()
	slowMux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(10 * time.Second):
			WriteJSON(w, http.StatusOK, map[string]string{"ok": "true"})
		case <-r.Context().Done():
			cancelled.Add(1)
		}
	})
	fastMux := http.NewServeMux()
	fastMux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "true"})
	})
	slow, fast := startTestServer(t, slowMux), startTestServer(t, fastMux)
	res := &staticResolver{addrs: []string{slow.Addr(), fast.Addr()}}
	c := NewClient(30*time.Second,
		WithBalancer(NewBalancer(res, BalancerConfig{Outlier: OutlierConfig{Disabled: true}})),
		WithoutRetries(),
		WithHedge(HedgePolicy{MaxFraction: 1, MinSamples: 2, MaxDelay: 5 * time.Millisecond}),
	)

	// Pre-arm the hedge baseline: without it, a first pick landing on
	// the stalled replica would wait out the full client timeout.
	for i := 0; i < 4; i++ {
		c.hedger.observeLatency("echo", time.Millisecond)
	}
	before := runtime.NumGoroutine()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < 40; i++ {
		if err := c.GetJSON(context.Background(), BalancedURL("echo")+"/ping", nil); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("calls not completing fast — hedging is not rescuing stalled primaries")
		}
	}
	if cancelled.Load() == 0 {
		t.Fatal("no loser was ever cancelled — hedge never raced the stalled replica")
	}

	// All attempt goroutines and in-flight accounting must settle. Idle
	// keep-alive connections hold two transport goroutines each, so they
	// are closed before counting; a leak of arbitration/drain goroutines
	// would scale with the ~20 hedged calls and blow well past the slack.
	settled := func() (int64, bool) {
		c.http.CloseIdleConnections()
		var inflight int64
		for _, rc := range c.ResilienceSnapshot().Replicas["echo"] {
			inflight += rc.Inflight
		}
		return inflight, inflight == 0 && runtime.NumGoroutine() <= before+4
	}
	var inflight int64
	ok := false
	for i := 0; i < 100 && !ok; i++ {
		time.Sleep(20 * time.Millisecond)
		inflight, ok = settled()
	}
	if !ok {
		t.Fatalf("leak after hedging: inflight=%d goroutines %d→%d",
			inflight, before, runtime.NumGoroutine())
	}

	// The loser's server must not have recorded latency samples for the
	// abandoned requests — one logical request, one histogram sample.
	if got := slow.MetricsSnapshot().Overall.Count; got != 0 {
		t.Fatalf("loser server recorded %d latency samples for abandoned requests", got)
	}
}

// TestAbandonedAndErrorResponsesStayOutOfHistograms pins the
// one-logical-request-one-sample rule server-side: cancelled requests
// and 5xx answers record spans but no latency samples.
func TestAbandonedAndErrorResponsesStayOutOfHistograms(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /hang", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusInternalServerError, "boom")
	})
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "true"})
	})
	s := startTestServer(t, mux)
	c := NewClient(5*time.Second, WithoutRetries(), WithoutBreakers())

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_ = c.GetJSON(ctx, s.URL()+"/hang", nil)
	cancel()
	_ = c.GetJSON(context.Background(), s.URL()+"/boom", nil)
	if err := c.GetJSON(context.Background(), s.URL()+"/ok", nil); err != nil {
		t.Fatal(err)
	}

	var snap MetricsSnapshot
	// The hung handler returns asynchronously once its context dies;
	// give its deferred observation a moment to run.
	for i := 0; i < 50; i++ {
		snap = s.MetricsSnapshot()
		if snap.Requests >= 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := snap.Overall.Count; got != 1 {
		t.Fatalf("histogram has %d samples, want exactly 1 (the /ok call): %+v", got, snap.Routes)
	}
	if _, ok := snap.Routes["GET /hang"]; ok && snap.Routes["GET /hang"].Count > 0 {
		t.Fatalf("abandoned request sampled: %+v", snap.Routes["GET /hang"])
	}
	if rt, ok := snap.Routes["GET /boom"]; ok && rt.Count > 0 {
		t.Fatalf("5xx answer sampled in latency histogram: %+v", rt)
	}
}

// TestBalancerServesStaleWithoutBlockingOnSlowResolver: once routing is
// established, an expired cache must not stall the request path while
// the resolver (registry) is slow or blackholed.
func TestBalancerServesStaleWithoutBlockingOnSlowResolver(t *testing.T) {
	_, addrs := startReplicas(t, 2)
	first := true
	var mu sync.Mutex
	slow := ResolverFunc(func(ctx context.Context, service string) ([]string, error) {
		mu.Lock()
		wasFirst := first
		first = false
		mu.Unlock()
		if wasFirst {
			return addrs, nil
		}
		<-ctx.Done() // registry blackholed
		return nil, ctx.Err()
	})
	b := NewBalancer(slow, BalancerConfig{CacheTTL: 20 * time.Millisecond})
	c := NewClient(5*time.Second, WithBalancer(b))
	if err := c.GetJSON(context.Background(), BalancedURL("echo")+"/ping", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond) // let the TTL lapse
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := c.GetJSON(context.Background(), BalancedURL("echo")+"/ping", nil); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("call %d stalled %v behind a blackholed resolver", i, d)
		}
	}
}

// TestHedgeRequiresIdempotency: POST bodies must never be hedged unless
// the caller opted into non-idempotent retries.
func TestHedgeRequiresIdempotency(t *testing.T) {
	var posts atomic.Int64
	newReplica := func() *Server {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /write", func(w http.ResponseWriter, r *http.Request) {
			posts.Add(1)
			time.Sleep(10 * time.Millisecond)
			WriteJSON(w, http.StatusOK, map[string]string{"ok": "true"})
		})
		return startTestServer(t, mux)
	}
	r1, r2 := newReplica(), newReplica()
	res := &staticResolver{addrs: []string{r1.Addr(), r2.Addr()}}
	c := NewClient(5*time.Second,
		WithBalancer(NewBalancer(res, BalancerConfig{})),
		WithHedge(HedgePolicy{MaxFraction: 1, MinSamples: 1, MaxDelay: time.Millisecond}),
	)
	const calls = 30
	for i := 0; i < calls; i++ {
		if err := c.PostJSON(context.Background(), BalancedURL("echo")+"/write",
			map[string]int{"i": i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := posts.Load(); got != calls {
		t.Fatalf("servers saw %d POSTs for %d logical calls — non-idempotent call was hedged", got, calls)
	}
	if c.Hedges() != 0 {
		t.Fatalf("hedges fired on POSTs: %d", c.Hedges())
	}
}

// TestHedgeWithoutSiblingOnlyRefundsBudget: when the hedge timer fires and
// no second replica is admissible — a single-replica service whose primary
// attempt holds the breaker's one half-open probe slot — the hedge is not
// launched and that is all: the call still succeeds on its primary, nothing
// is booked as a short circuit, and the cached replica list stays valid.
func TestHedgeWithoutSiblingOnlyRefundsBudget(t *testing.T) {
	var slow atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() {
			time.Sleep(40 * time.Millisecond) // well past the hedge delay
		}
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "true"})
	})
	replica := startTestServer(t, mux)
	res := &staticResolver{addrs: []string{replica.Addr()}}
	cfg := testBreakerConfig()
	c := NewClient(5*time.Second,
		WithBalancer(NewBalancer(res, BalancerConfig{CacheTTL: time.Hour})),
		WithBreaker(cfg),
		WithoutRetries(),
		WithHedge(HedgePolicy{MaxFraction: 1, MinSamples: 2, MaxDelay: 5 * time.Millisecond}),
	)
	for i := 0; i < 4; i++ {
		c.hedger.observeLatency("echo", time.Millisecond)
	}
	call := func() error { return c.GetJSON(context.Background(), BalancedURL("echo")+"/ping", nil) }
	if err := call(); err != nil { // warms the replica cache
		t.Fatal(err)
	}

	br := c.breakers.get(replica.Addr())
	tripBreaker(br)
	time.Sleep(cfg.OpenTimeout + 10*time.Millisecond)
	refusedBefore := br.Snapshot().ShortCircuits

	// The probe is answered slower than the hedge delay, so the hedge
	// timer fires while the probe slot is taken.
	slow.Store(true)
	if err := call(); err != nil {
		t.Fatalf("call whose hedge could not launch failed: %v", err)
	}
	slow.Store(false)
	if got := c.Hedges(); got != 0 {
		t.Fatalf("Hedges() = %d on a single-replica service", got)
	}
	if got := c.ShortCircuits(); got != 0 {
		t.Fatalf("ShortCircuits() = %d after a successful call with no hedge launched", got)
	}
	if got := br.Snapshot().ShortCircuits; got != refusedBefore {
		t.Fatalf("breaker short circuits %d → %d: the optional pick was booked as a refusal", refusedBefore, got)
	}
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("breaker = %v after a successful probe, want closed", got)
	}
	// An invalidated cache would send the next call to the resolver.
	if err := call(); err != nil {
		t.Fatal(err)
	}
	if got := res.count(); got != 1 {
		t.Fatalf("resolver consulted %d times, want 1: the unlaunched hedge invalidated the cache", got)
	}
}
