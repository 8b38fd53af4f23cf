package teastore

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/loadgen"
	"repro/internal/workload"
)

// recCards counts recommendation cards on a product page.
func recCards(page string) int {
	return strings.Count(page, `<div class="card">`)
}

// TestChaosRecommenderErrorsServeCachedStrip: with the recommender
// erroring on every call, a previously rendered product page still shows
// its recommendation strip from the WebUI's fallback cache.
func TestChaosRecommenderErrorsServeCachedStrip(t *testing.T) {
	st := startStack(t, "coocc")
	b := newBrowser(t, st.WebUIURL)

	primed := b.get("/product/2", 200)
	if recCards(primed) == 0 {
		t.Fatal("healthy product page has no recommendation cards")
	}

	if err := st.SetChaos("recommender", httpkit.ChaosConfig{ErrorRate: 1}); err != nil {
		t.Fatal(err)
	}
	degraded := b.get("/product/2", 200)
	if !strings.Contains(degraded, "You might also like") {
		t.Fatal("recommendation section gone under chaos")
	}
	if got, want := recCards(degraded), recCards(primed); got != want {
		t.Fatalf("degraded page shows %d cards, want the %d cached ones", got, want)
	}

	// An unprimed anchor has no cached strip: the page still renders,
	// just without suggestions.
	cold := b.get("/product/9", 200)
	if !strings.Contains(cold, "Add to cart") {
		t.Fatal("unprimed product page broken under recommender chaos")
	}

	// Lifting the chaos restores live recommendations.
	if err := st.SetChaos("recommender", httpkit.ChaosConfig{}); err != nil {
		t.Fatal(err)
	}
	if recCards(b.get("/product/2", 200)) == 0 {
		t.Fatal("recommendations did not recover after chaos lifted")
	}
}

// TestChaosImageErrorsRenderPlaceholders: with the image provider erroring,
// category pages embed the gray placeholder instead of broken image tags.
func TestChaosImageErrorsRenderPlaceholders(t *testing.T) {
	st := startStack(t, "")
	if err := st.SetChaos("image", httpkit.ChaosConfig{ErrorRate: 1}); err != nil {
		t.Fatal(err)
	}
	b := newBrowser(t, st.WebUIURL)
	page := b.get("/category/1", 200)
	// The 8×8 placeholder PNG's distinctive base64 prefix.
	if !strings.Contains(page, "data:image/png;base64,iVBORw0KGgoAAAANSUhEUgAAAAgAAAAI") {
		t.Fatal("category page lacks placeholder images under image chaos")
	}
	if !strings.Contains(page, "/product/") {
		t.Fatal("category page lost products under image chaos")
	}
}

// TestBootTimeChaosAndResilienceConfig: Config.Chaos applies fault
// injection from the first request, and Config.Resilience tunes the
// shared client policies without breaking the boot sequence.
func TestBootTimeChaosAndResilienceConfig(t *testing.T) {
	st, err := Start(Config{
		Catalog: db.GenerateSpec{
			Categories: 2, ProductsPerCategory: 4, Users: 2, SeedOrders: 10, Seed: 7,
		},
		Resilience: ResilienceConfig{
			Retry:         httpkit.RetryPolicy{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
			MaxInflight:   64,
			ClientTimeout: 5 * time.Second,
		},
		Chaos: map[string]httpkit.ChaosConfig{
			"image": {Latency: 5 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		st.Shutdown(ctx)
	})

	b := newBrowser(t, st.WebUIURL)
	b.get("/category/1", 200)
	for _, svc := range st.StatsSnapshot() {
		if svc.Service == "image" && svc.Resilience.ChaosInjected == 0 {
			t.Fatal("boot-time image chaos never injected")
		}
	}
	if st.Err() != nil {
		t.Fatalf("stack reports listener death: %v", st.Err())
	}
}

// TestStackShedsUnderOverload: squeezing a service's admission bound makes
// it shed with 503s that surface in the stack stats, the breakdown table,
// and the Prometheus export.
func TestStackShedsUnderOverload(t *testing.T) {
	st := startStack(t, "")
	ui, err := st.replica("webui", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Admit one request at a time; a burst of slow category renders must
	// shed the overflow rather than queueing it.
	ui.SetMaxInflight(1)

	done := make(chan struct{})
	const burst = 12
	for i := 0; i < burst; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			resp, err := http.Get(st.WebUIURL + "/category/1")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < burst; i++ {
		<-done
	}

	var uiStats *ServiceStats
	for _, svc := range st.StatsSnapshot() {
		if svc.Service == "webui" {
			svc := svc
			uiStats = &svc
		}
	}
	if uiStats == nil || uiStats.Resilience.Shed == 0 {
		t.Fatalf("webui shed not visible in StatsSnapshot: %+v", uiStats)
	}
	if table := st.BreakdownTable().String(); !strings.Contains(table, "shed") {
		t.Fatalf("breakdown table lacks shed column:\n%s", table)
	}
	hc := httpkit.NewClient(2 * time.Second)
	raw, err := hc.GetBytes(context.Background(), st.WebUIURL+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "teastore_shed_total") {
		t.Fatal("teastore_shed_total missing from /metrics")
	}
}

// TestPersistenceKilledMidLoadRun is the acceptance scenario scaled to CI:
// the persistence service dies in the middle of a closed-loop browse run,
// and the run must still complete promptly — every request either succeeds,
// fails fast, or is retried within its deadline; none hang. Afterwards the
// WebUI's breaker state against the dead backend is visible in the stack
// stats.
func TestPersistenceKilledMidLoadRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load run")
	}
	st := startStack(t, "")

	kill := time.AfterFunc(700*time.Millisecond, func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = st.StopService(ctx, "persistence")
	})
	defer kill.Stop()

	start := time.Now()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		WebUIURL:       st.WebUIURL,
		PersistenceURL: st.PersistenceURL,
		Profile:        workload.Profiles()["browse"],
		Users:          8,
		Warmup:         200 * time.Millisecond,
		Duration:       2 * time.Second,
		ThinkScale:     0.05,
		CatalogUsers:   5,
		Seed:           1,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("load run against dying stack errored out: %v", err)
	}
	// No hung requests: the run ends within the configured window plus the
	// per-request timeout slack, never stuck on a dead socket.
	if elapsed > 30*time.Second {
		t.Fatalf("run took %v — requests hung on the dead backend", elapsed)
	}
	if res.Served == 0 {
		t.Fatal("no requests completed")
	}
	if res.Errors == 0 {
		t.Fatal("persistence death produced zero errors — outage never observed")
	}

	// StopService deregisters before shutting down, so the routing plane
	// dropped the dead backend immediately — lookups must come back empty
	// rather than advertising a corpse until the lease expires.
	if addrs := st.Registry().Lookup("persistence"); len(addrs) != 0 {
		t.Fatalf("stopped persistence still registered: %v", addrs)
	}
	for _, svc := range st.StatsSnapshot() {
		if svc.Service == "webui" {
			return
		}
	}
	t.Fatal("webui missing from StatsSnapshot")
}
