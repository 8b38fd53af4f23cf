package teastore

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/scalectl"
	"repro/internal/services/registry"
)

// TestStartReplicaAtRuntime: a stack booted with one image replica gains a
// second one mid-run — registered, visible in Instances, and receiving
// balanced traffic without a restart.
func TestStartReplicaAtRuntime(t *testing.T) {
	st := startReplicatedStack(t, nil, ResilienceConfig{})

	if err := st.StartReplica("image"); err != nil {
		t.Fatal(err)
	}
	if got := st.Registry().Lookup("image"); len(got) != 2 {
		t.Fatalf("registry lists %d image replicas after StartReplica, want 2: %v", len(got), got)
	}
	if got := len(st.ReplicaURLs("image")); got != 2 {
		t.Fatalf("ReplicaURLs lists %d image replicas, want 2", got)
	}

	// Both replicas serve traffic through the balancer.
	c := balancedClient(st, 2*time.Second)
	for i := 0; i < 60; i++ {
		if _, err := c.GetBytes(context.Background(), imageTarget(i), nil); err != nil {
			t.Fatalf("balanced image fetch %d failed: %v", i, err)
		}
	}
	for _, srv := range st.serversOf("image") {
		if srv.MetricsSnapshot().Requests == 0 {
			t.Fatalf("image replica %s received no traffic after runtime scale-up", srv.Addr())
		}
	}

	if err := st.StartReplica("registry"); err == nil {
		t.Fatal("StartReplica accepted the registry — the routing plane cannot be replicated")
	}
	if err := st.StartReplica("nope"); err == nil {
		t.Fatal("StartReplica accepted an unknown service")
	}
}

// TestRuntimeReplicaInheritsServiceCap: a replica started at runtime gets
// the same per-service admission bound as its boot-time siblings, so a
// deliberately throttled service stays throttled while scaling.
func TestRuntimeReplicaInheritsServiceCap(t *testing.T) {
	st, err := Start(Config{
		Catalog:            db.GenerateSpec{Categories: 2, ProductsPerCategory: 4, Users: 2, SeedOrders: 4, Seed: 7},
		BalancerCacheTTL:   100 * time.Millisecond,
		ServiceMaxInflight: map[string]int{"image": 1},
		Chaos:              map[string]httpkit.ChaosConfig{"image": {Latency: 150 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		st.Shutdown(ctx)
	})
	if err := st.StartReplica("image"); err != nil {
		t.Fatal(err)
	}
	fresh := st.serversOf("image")[1]

	// Two concurrent direct requests against the new replica: the cap of 1
	// must shed exactly one of them with 503.
	var shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fresh.URL() + "/images?item=1:icon")
			if err != nil {
				t.Errorf("direct image fetch: %v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				shed.Add(1)
			}
		}()
	}
	wg.Wait()
	if shed.Load() != 1 {
		t.Fatalf("new replica shed %d of 2 concurrent requests, want exactly 1 — ServiceMaxInflight not inherited", shed.Load())
	}
}

// TestScaleDownRefusesLastReplica: planned shrinking never removes the
// only replica of a service.
func TestScaleDownRefusesLastReplica(t *testing.T) {
	st := startReplicatedStack(t, nil, ResilienceConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := st.ScaleDown(ctx, "image"); err == nil {
		t.Fatal("ScaleDown removed the last image replica")
	}
	if got := st.Registry().Lookup("image"); len(got) != 1 {
		t.Fatalf("registry lists %d image replicas, want the survivor: %v", len(got), got)
	}
}

// TestDrainScaleDownZeroFailuresWithoutRetries is the drain regression
// test, sharpened by disabling retries: with requests permanently in
// flight (chaos latency), removing a replica mid-run must not fail a
// single call. Before the drain existed, StopReplica closed the listener
// while the caller's balancer cache was still warm, so every stale pick
// died on a refused connection — visible here precisely because no retry
// papers over it.
func TestDrainScaleDownZeroFailuresWithoutRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load run")
	}
	st := startReplicatedStack(t, map[string]int{"image": 2}, ResilienceConfig{})
	if err := st.SetChaos("image", httpkit.ChaosConfig{Latency: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	c := httpkit.NewClient(2*time.Second,
		httpkit.WithBalancer(httpkit.NewBalancer(
			registry.NewClient(st.RegistryURL, httpkit.NewClient(time.Second)),
			httpkit.BalancerConfig{CacheTTL: 100 * time.Millisecond})),
		httpkit.WithoutRetries(),
		httpkit.WithoutBreakers())

	done := make(chan error, 1)
	go func() {
		time.Sleep(400 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		done <- st.ScaleDown(ctx, "image")
	}()

	okCount, failCount := driveImages(t, c, 4, 1500*time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("ScaleDown: %v", err)
	}
	if okCount == 0 {
		t.Fatal("no requests completed")
	}
	if failCount != 0 {
		t.Fatalf("%d of %d retry-free requests failed across the drain — scale-down is not graceful",
			failCount, okCount+failCount)
	}
	if got := st.Registry().Lookup("image"); len(got) != 1 {
		t.Fatalf("registry lists %d image replicas after ScaleDown: %v", len(got), got)
	}
	if got := len(st.serversOf("image")); got != 1 {
		t.Fatalf("stack still tracks %d image servers after ScaleDown", got)
	}
}

// TestBalancerStopsRoutingToDrainedReplica: after a drain-based
// scale-down, an external balancer's traffic share to the removed
// replica drops to zero within one cache refresh.
func TestBalancerStopsRoutingToDrainedReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load run")
	}
	st := startReplicatedStack(t, map[string]int{"image": 2}, ResilienceConfig{})
	c := balancedClient(st, 2*time.Second)

	victim := st.serversOf("image")[1]
	for i := 0; i < 40; i++ {
		if _, err := c.GetBytes(context.Background(), imageTarget(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := st.ScaleDown(ctx, "image"); err != nil {
		t.Fatal(err)
	}

	// One cache TTL after the drain completed, no request may reach the
	// victim: its request counter must freeze.
	time.Sleep(150 * time.Millisecond)
	frozen := victim.MetricsSnapshot().Requests
	for i := 0; i < 60; i++ {
		if _, err := c.GetBytes(context.Background(), imageTarget(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := victim.MetricsSnapshot().Requests; got != frozen {
		t.Fatalf("drained replica still served %d requests after removal", got-frozen)
	}
}

// autoscaledStack boots a stack whose image service is capped at one
// in-flight request per replica (plus chaos latency) under the given
// reconciler config — the miniature of the paper's scale-up experiment,
// quick enough for CI.
func autoscaledStack(t *testing.T, asc scalectl.Config) *Stack {
	t.Helper()
	st, err := Start(Config{
		Catalog:            db.GenerateSpec{Categories: 3, ProductsPerCategory: 12, Users: 5, SeedOrders: 40, Seed: 7},
		BalancerCacheTTL:   100 * time.Millisecond,
		ServiceMaxInflight: map[string]int{"image": 1},
		Chaos:              map[string]httpkit.ChaosConfig{"image": {Latency: 10 * time.Millisecond}},
		Autoscale:          &asc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		st.Shutdown(ctx)
	})
	return st
}

// retryHeavyClient builds the measuring client for autoscale runs:
// balanced, breakers off (a saturated replica sheds by design), and a
// retry budget deep enough that shed 503s are absorbed rather than
// surfaced — under deliberate saturation a thin budget turns ordinary
// backpressure into spurious "failures".
func retryHeavyClient(st *Stack) *httpkit.Client {
	return httpkit.NewClient(2*time.Second,
		httpkit.WithBalancer(httpkit.NewBalancer(
			registry.NewClient(st.RegistryURL, httpkit.NewClient(time.Second)),
			httpkit.BalancerConfig{CacheTTL: 100 * time.Millisecond})),
		// Budget math under saturation: a shed retry costs ~backoff while
		// the single 10ms-service-time slot frees at 100/s, so short
		// backoffs give each attempt only ~1/6 odds against 3 competing
		// workers. 60 attempts with a 25ms ceiling keeps worst-case retry
		// time ~1.4s (inside the 2s client budget) and drives the
		// per-request exhaustion probability below 1e-4.
		httpkit.WithRetry(httpkit.RetryPolicy{
			MaxAttempts: 60, BaseBackoff: time.Millisecond, MaxBackoff: 25 * time.Millisecond,
		}),
		httpkit.WithoutBreakers())
}

// TestAutoscaleAcceptance is the control plane's end-to-end scenario: a
// saturated image service (capped at one in-flight request per replica)
// is scaled 1→2 by the reconciler under load, the completion rate after
// convergence beats the single-replica window by ≥1.2×, not one
// idempotent call fails across the scale-up or the drain-based
// scale-down, and the /status endpoint tells the story.
func TestAutoscaleAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second autoscale run")
	}
	st := autoscaledStack(t, scalectl.Config{
		Services: map[string]scalectl.Bounds{"image": {Min: 1, Max: 2}},
		Interval: 100 * time.Millisecond,
		// 4 stable ticks ≈ 400ms of confirmed saturation before scaling:
		// long enough to measure a single-replica baseline window first.
		UpStableTicks:   4,
		DownStableTicks: 3,
		DownCooldown:    800 * time.Millisecond,
		DrainTimeout:    3 * time.Second,
	})
	c := retryHeavyClient(st)

	// One continuous closed-loop run; the scale event splits it into the
	// baseline window (1 replica) and the converged window (2 replicas).
	var okCount, failCount atomic.Int64
	var firstErr atomic.Value
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		loadWG.Add(1)
		go func(w int) {
			defer loadWG.Done()
			for i := w; ; i += 4 {
				select {
				case <-stopLoad:
					return
				default:
				}
				if _, err := c.GetBytes(context.Background(), imageTarget(i), nil); err != nil {
					failCount.Add(1)
					firstErr.CompareAndSwap(nil, err)
				} else {
					okCount.Add(1)
				}
			}
		}(w)
	}

	start := time.Now()
	waitForReplicas(t, st, "image", 2, 5*time.Second, "reconciler never scaled image 1→2 under saturation")
	baselineOK := okCount.Load()
	baselineDur := time.Since(start)

	// Let the new replica warm up and the routing caches refresh, then
	// measure the converged completion rate over a full second.
	time.Sleep(300 * time.Millisecond)
	settledOK := okCount.Load()
	time.Sleep(time.Second)
	convergedRate := float64(okCount.Load()-settledOK) / 1.0
	close(stopLoad)
	loadWG.Wait()

	if failCount.Load() != 0 {
		t.Fatalf("%d idempotent calls failed across the autoscale run (first: %v)",
			failCount.Load(), firstErr.Load())
	}
	if baselineOK == 0 {
		t.Fatal("no requests completed in the single-replica window")
	}
	baselineRate := float64(baselineOK) / baselineDur.Seconds()
	ratio := convergedRate / baselineRate
	t.Logf("completion rate: 1 replica %.0f/s over %v, 2 replicas %.0f/s (%.2fx)",
		baselineRate, baselineDur.Round(time.Millisecond), convergedRate, ratio)
	if ratio < 1.2 {
		t.Fatalf("scale-up gave only %.2fx the single-replica completion rate, want ≥ 1.2x", ratio)
	}

	// Load stopped: the score decays (windowed signals), the cooldown
	// passes, and the reconciler drains back to one replica.
	waitForReplicas(t, st, "image", 1, 8*time.Second, "reconciler never scaled image back to 1 after load stopped")

	// The control plane's own account of the run.
	var status scalectl.Status
	resp, err := http.Get(st.ScalectlURL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Services) != 1 || status.Services[0].Service != "image" {
		t.Fatalf("scalectl /status = %+v, want one image entry", status.Services)
	}
	img := status.Services[0]
	if img.UpEvents < 1 || img.DownEvents < 1 {
		t.Fatalf("status records %d up / %d down events, want ≥1 of each: %+v", img.UpEvents, img.DownEvents, img)
	}

	// The stack-level breakdown table carries the reconciler column.
	found := false
	for _, row := range st.BreakdownTable().Rows {
		if row[0] == "image" && row[len(row)-1] != "-" {
			found = true
		}
	}
	if !found {
		t.Fatal("BreakdownTable has no autoscale cell for the controlled image service")
	}
}

// TestAutoscaleChurnConvergesWithinBounds: alternating load bursts and
// idle gaps force the reconciler up and down repeatedly while traffic
// keeps flowing. Replica counts must never leave [min,max], no
// idempotent call may fail, and after the noise the service must
// converge back to min.
func TestAutoscaleChurnConvergesWithinBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second churn run")
	}
	st := autoscaledStack(t, scalectl.Config{
		Services:        map[string]scalectl.Bounds{"image": {Min: 1, Max: 3}},
		Interval:        40 * time.Millisecond,
		UpStableTicks:   2,
		DownStableTicks: 3,
		DownCooldown:    250 * time.Millisecond,
		DrainTimeout:    3 * time.Second,
	})
	c := retryHeavyClient(st)

	var outOfBounds atomic.Int64
	stopWatch := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case <-tick.C:
				if n := len(st.ReplicaURLs("image")); n < 1 || n > 3 {
					outOfBounds.Add(1)
				}
			}
		}
	}()

	var totalOK, totalFail int64
	for burst := 0; burst < 3; burst++ {
		okCount, failCount := driveImages(t, c, 4, 700*time.Millisecond)
		totalOK += okCount
		totalFail += failCount
		time.Sleep(500 * time.Millisecond) // idle gap: scores decay, drains fire
	}
	close(stopWatch)
	watchWG.Wait()

	if totalOK == 0 {
		t.Fatal("no requests completed under churn")
	}
	if totalFail != 0 {
		t.Fatalf("%d of %d idempotent calls failed across autoscale churn", totalFail, totalOK+totalFail)
	}
	if n := outOfBounds.Load(); n != 0 {
		t.Fatalf("replica count left [1,3] %d times during churn", n)
	}
	status := st.Autoscaler().Status().Services[0]
	if status.UpEvents == 0 {
		t.Fatalf("churn produced no scale-ups: %+v", status)
	}
	waitForReplicas(t, st, "image", 1, 6*time.Second, "image never converged back to min after churn")
}

// waitForReplicas polls the stack's live replica count.
func waitForReplicas(t *testing.T, st *Stack, service string, want int, timeout time.Duration, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for len(st.ReplicaURLs(service)) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: have %d %s replicas, want %d", msg, len(st.ReplicaURLs(service)), service, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStatsSnapshotCarriesAutoscale: services under reconciler control
// expose their ServiceStatus in StatsSnapshot; uncontrolled ones don't.
func TestStatsSnapshotCarriesAutoscale(t *testing.T) {
	st := autoscaledStack(t, scalectl.Config{
		Services: map[string]scalectl.Bounds{"image": {Min: 1, Max: 2}},
		Interval: time.Hour, // loop effectively idle
	})

	var sawImage, sawWebUI bool
	for _, row := range st.StatsSnapshot() {
		switch row.Service {
		case "image":
			sawImage = true
			if row.Autoscale == nil {
				t.Fatal("image row lacks autoscale status despite reconciler control")
			}
			if row.Autoscale.Min != 1 || row.Autoscale.Max != 2 {
				t.Fatalf("image autoscale bounds = %+v, want 1..2", row.Autoscale)
			}
		case "webui":
			sawWebUI = true
			if row.Autoscale != nil {
				t.Fatalf("webui is not controlled but carries autoscale status %+v", row.Autoscale)
			}
		}
	}
	if !sawImage || !sawWebUI {
		t.Fatal("StatsSnapshot missing expected service rows")
	}
}
