package teastore

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/loadgen"
	"repro/internal/services/registry"
)

// startReplicatedStack boots a stack with the given per-service replica
// counts and a tight balancer TTL so routing reacts quickly in tests.
func startReplicatedStack(t *testing.T, replicas map[string]int, res ResilienceConfig) *Stack {
	t.Helper()
	st, err := Start(Config{
		Catalog: db.GenerateSpec{
			Categories: 3, ProductsPerCategory: 12, Users: 5, SeedOrders: 40, Seed: 7,
		},
		Replicas:         replicas,
		BalancerCacheTTL: 100 * time.Millisecond,
		Resilience:       res,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		st.Shutdown(ctx)
	})
	return st
}

// balancedClient returns a client routing svc:// URLs through the stack's
// registry — the same path the stack's own services use.
func balancedClient(st *Stack, timeout time.Duration) *httpkit.Client {
	resolver := registry.NewClient(st.RegistryURL, httpkit.NewClient(time.Second))
	return httpkit.NewClient(timeout,
		httpkit.WithBalancer(httpkit.NewBalancer(resolver, httpkit.BalancerConfig{CacheTTL: 100 * time.Millisecond})))
}

// TestReplicatedStackBootsAndRegisters: every replica of every service
// registers, shows up in Instances and StatsSnapshot, and the stack still
// serves end-to-end page loads.
func TestReplicatedStackBootsAndRegisters(t *testing.T) {
	st := startReplicatedStack(t, map[string]int{"image": 2, "recommender": 2}, ResilienceConfig{})

	for svc, want := range map[string]int{"image": 2, "recommender": 2, "persistence": 1, "webui": 1} {
		if got := st.Registry().Lookup(svc); len(got) != want {
			t.Fatalf("registry lists %d %s replicas, want %d: %v", len(got), svc, want, got)
		}
	}
	perService := map[string]int{}
	for _, inst := range st.Instances() {
		perService[inst.Service]++
	}
	if perService["image"] != 2 || perService["recommender"] != 2 {
		t.Fatalf("Instances() per-service counts wrong: %v", perService)
	}
	statsPer := map[string]int{}
	for _, svc := range st.StatsSnapshot() {
		statsPer[svc.Service]++
	}
	if statsPer["image"] != 2 {
		t.Fatalf("StatsSnapshot has %d image rows, want one per replica", statsPer["image"])
	}

	b := newBrowser(t, st.WebUIURL)
	page := b.get("/category/1", 200)
	if !strings.Contains(page, "/product/") {
		t.Fatal("replicated stack fails to render a category page")
	}
}

// TestStopReplicaDeregistersImmediately: a stopped replica disappears
// from registry lookups at stop time, not when its lease expires — the
// regression test for Stack deregistration on shutdown.
func TestStopReplicaDeregistersImmediately(t *testing.T) {
	st := startReplicatedStack(t, map[string]int{"image": 2}, ResilienceConfig{})

	before := st.Registry().Lookup("image")
	if len(before) != 2 {
		t.Fatalf("expected 2 image replicas, got %v", before)
	}
	stopped, err := st.replica("image", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := st.StopReplica(ctx, "image", 0); err != nil {
		t.Fatal(err)
	}
	after := st.Registry().Lookup("image")
	if len(after) != 1 {
		t.Fatalf("lookup after StopReplica = %v, want exactly the survivor", after)
	}
	if after[0] == stopped.Addr() {
		t.Fatalf("lookup still advertises the stopped replica %s", stopped.Addr())
	}
}

// imageTarget returns a balanced URL that exercises the image service's
// batch path with a one-icon batch (cache-friendly, idempotent).
func imageTarget(i int) string {
	return httpkit.BalancedURL("image") + fmt.Sprintf("/images?item=%d:icon", 1+i%12)
}

// driveImages runs a closed-loop population of workers fetching product
// images through the balanced client for the given duration, returning
// (successes, failures).
func driveImages(t *testing.T, c *httpkit.Client, workers int, d time.Duration) (int64, int64) {
	t.Helper()
	var ok, fail atomic.Int64
	var firstErr atomic.Value
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i++ {
				if _, err := c.GetBytes(context.Background(), imageTarget(i), nil); err != nil {
					fail.Add(1)
					firstErr.CompareAndSwap(nil, err)
				} else {
					ok.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Logf("driveImages: first failure: %v", err)
	}
	return ok.Load(), fail.Load()
}

// throttleImageReplicas caps each image replica at one in-flight request
// and injects latency so per-replica capacity, not client speed, bounds
// throughput — the scale-up bottleneck in miniature.
func throttleImageReplicas(t *testing.T, st *Stack, latency time.Duration) {
	t.Helper()
	if err := st.SetChaos("image", httpkit.ChaosConfig{Latency: latency}); err != nil {
		t.Fatal(err)
	}
	for _, srv := range st.serversOf("image") {
		srv.SetMaxInflight(1)
	}
}

// TestReplicationImprovesThroughputAndSpreads is the acceptance scenario:
// the image service is the bottleneck (serialized, fixed service time)
// under a fixed closed-loop population. Doubling its replicas must raise
// throughput materially, and FetchBreakdown must show neither replica
// taking more than 70% of the service's requests.
func TestReplicationImprovesThroughputAndSpreads(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load run")
	}
	retry := httpkit.RetryPolicy{
		MaxAttempts: 8, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	}
	const (
		latency  = 15 * time.Millisecond
		workers  = 6
		duration = 1200 * time.Millisecond
	)

	measure := func(replicas int) (int64, *Stack) {
		st := startReplicatedStack(t, map[string]int{"image": replicas}, ResilienceConfig{})
		throttleImageReplicas(t, st, latency)
		// Breakers off in the measuring client: a saturated replica sheds
		// 503s by design, and tripping a breaker on backpressure would
		// measure refusal windows instead of replica capacity.
		c := httpkit.NewClient(2*time.Second,
			httpkit.WithBalancer(httpkit.NewBalancer(
				registry.NewClient(st.RegistryURL, httpkit.NewClient(time.Second)),
				httpkit.BalancerConfig{CacheTTL: 100 * time.Millisecond})),
			httpkit.WithRetry(retry),
			httpkit.WithoutBreakers())
		okCount, _ := driveImages(t, c, workers, duration)
		return okCount, st
	}

	single, _ := measure(1)
	double, st2 := measure(2)
	if single == 0 {
		t.Fatal("baseline run completed no requests")
	}
	ratio := float64(double) / float64(single)
	t.Logf("throughput: 1 replica=%d, 2 replicas=%d (%.2fx)", single, double, ratio)
	if ratio < 1.25 {
		t.Fatalf("2 image replicas gave only %.2fx the single-replica throughput (%d vs %d)",
			ratio, double, single)
	}

	// Share check straight from the loadgen breakdown — the same table an
	// operator sees after a run.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	table, err := loadgen.FetchBreakdown(ctx, st2.RegistryURL)
	if err != nil {
		t.Fatal(err)
	}
	shareCol := -1
	for i, h := range table.Headers {
		if h == "share" {
			shareCol = i
		}
	}
	if shareCol < 0 {
		t.Fatalf("breakdown table lacks a share column: %v", table.Headers)
	}
	imageRows := 0
	for _, row := range table.Rows {
		if row[0] != "image" {
			continue
		}
		imageRows++
		share, err := strconv.ParseFloat(strings.TrimSuffix(row[shareCol], "%"), 64)
		if err != nil {
			t.Fatalf("unparseable share %q in row %v", row[shareCol], row)
		}
		if share > 70 {
			t.Fatalf("image replica %s took %.1f%% of requests — balancing is skewed:\n%s",
				row[1], share, table.String())
		}
	}
	if imageRows != 2 {
		t.Fatalf("breakdown shows %d image rows, want 2:\n%s", imageRows, table.String())
	}
}

// TestKillReplicaMidRunFailsNoIdempotentRequest: with two image replicas
// serving a closed-loop GET run, stopping one mid-run must not surface a
// single error — the balancer invalidates, fails over, and retries within
// each logical call.
func TestKillReplicaMidRunFailsNoIdempotentRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load run")
	}
	st := startReplicatedStack(t, map[string]int{"image": 2}, ResilienceConfig{})
	c := balancedClient(st, 2*time.Second)

	kill := time.AfterFunc(400*time.Millisecond, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = st.StopReplica(ctx, "image", 0)
	})
	defer kill.Stop()

	okCount, failCount := driveImages(t, c, 4, 1200*time.Millisecond)
	if okCount == 0 {
		t.Fatal("no requests completed")
	}
	if failCount != 0 {
		t.Fatalf("%d of %d idempotent requests failed across the replica kill", failCount, okCount+failCount)
	}
	if addrs := st.Registry().Lookup("image"); len(addrs) != 1 {
		t.Fatalf("registry still lists %d image replicas after the kill: %v", len(addrs), addrs)
	}
}

// TestRegistryChurnUnderLoad: replicas come, go, and blackhole mid-run
// while a closed-loop population drives idempotent image fetches. The
// balancer must keep the error rate at zero throughout — stale cache
// entries are invalidated on connection failure, blackholed replicas are
// routed around via per-call avoid sets and client timeouts, and phantom
// registrations (a registered address nobody listens on) cost a fast
// connection-refused retry, never a user-visible failure.
func TestRegistryChurnUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second churn run")
	}
	st := startReplicatedStack(t, map[string]int{"image": 2}, ResilienceConfig{})
	// Short per-attempt timeout so a blackholed attempt fails over fast.
	c := balancedClient(st, 400*time.Millisecond)

	phantom := registry.Registration{Service: "image", Address: "127.0.0.1:1"}
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		tick := time.NewTicker(150 * time.Millisecond)
		defer tick.Stop()
		phase := 0
		for {
			select {
			case <-stopChurn:
				_ = st.SetReplicaChaos("image", 0, httpkit.ChaosConfig{})
				st.Registry().Deregister(phantom)
				return
			case <-tick.C:
			}
			switch phase % 4 {
			case 0: // blackhole one replica: requests to it hang until timeout
				_ = st.SetReplicaChaos("image", 0, httpkit.ChaosConfig{BlackholeRate: 1})
			case 1: // lift the blackhole
				_ = st.SetReplicaChaos("image", 0, httpkit.ChaosConfig{})
			case 2: // phantom registration: an address with no listener
				st.Registry().Register(phantom)
			case 3: // the phantom departs again
				st.Registry().Deregister(phantom)
			}
			phase++
		}
	}()

	okCount, failCount := driveImages(t, c, 4, 1500*time.Millisecond)
	close(stopChurn)
	churnWG.Wait()

	if okCount == 0 {
		t.Fatal("no requests completed under churn")
	}
	if failCount != 0 {
		t.Fatalf("%d of %d idempotent requests failed under registry churn", failCount, okCount+failCount)
	}
}
