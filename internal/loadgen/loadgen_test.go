package loadgen_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/loadgen"
	"repro/internal/scalectl"
	"repro/internal/teastore"
	"repro/internal/workload"
)

func startStack(t *testing.T) *teastore.Stack {
	t.Helper()
	st, err := teastore.Start(teastore.Config{
		Catalog: db.GenerateSpec{
			Categories: 2, ProductsPerCategory: 8, Users: 4, SeedOrders: 20, Seed: 3,
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
	return st
}

func TestRunAgainstRealStack(t *testing.T) {
	st := startStack(t)
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		WebUIURL:       st.WebUIURL,
		PersistenceURL: st.PersistenceURL,
		Users:          8,
		Warmup:         200 * time.Millisecond,
		Duration:       2 * time.Second,
		ThinkScale:     0.02,
		CatalogUsers:   4,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served == 0 || res.AchievedRate <= 0 {
		t.Fatalf("no load delivered: %+v", res)
	}
	if res.Errors > res.Served/10 {
		t.Fatalf("error rate too high: %d errors of %d requests", res.Errors, res.Served)
	}
	if res.Latency.P99 < res.Latency.P50 {
		t.Fatal("latency percentiles inverted")
	}
	// The browse profile must exercise several distinct flows. Exact type
	// coverage in a short window is timing-dependent (the race detector
	// slows PNG rendering ~20×), so only diversity is asserted.
	if len(res.PerRequest) < 2 {
		t.Fatalf("only %d request types issued: %v", len(res.PerRequest), res.PerRequest)
	}
	_ = workload.ReqHome
}

// TestFetchBreakdown runs a short load, then collects the per-service
// latency table through the registry exactly like `loadgen -registry`.
func TestFetchBreakdown(t *testing.T) {
	st := startStack(t)
	if _, err := loadgen.Run(context.Background(), loadgen.Config{
		WebUIURL:       st.WebUIURL,
		PersistenceURL: st.PersistenceURL,
		Users:          4,
		Warmup:         100 * time.Millisecond,
		Duration:       time.Second,
		ThinkScale:     0.02,
		CatalogUsers:   4,
		Seed:           1,
	}); err != nil {
		t.Fatal(err)
	}
	tab, err := loadgen.FetchBreakdown(context.Background(), st.RegistryURL)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("breakdown has %d rows, want 6:\n%s", len(tab.Rows), tab.String())
	}
	rendered := tab.String()
	for _, svc := range []string{"auth", "image", "persistence", "recommender", "registry", "webui"} {
		if !strings.Contains(rendered, svc) {
			t.Fatalf("breakdown missing %s:\n%s", svc, rendered)
		}
	}
}

// TestFetchBreakdownAutoscaleColumn: against a stack running the scale-up
// control plane, the breakdown's autoscale column reports the controlled
// service's replica state while uncontrolled services show "-". The plain
// TestFetchBreakdown above covers the no-reconciler stack, where every
// row shows "-".
func TestFetchBreakdownAutoscaleColumn(t *testing.T) {
	st, err := teastore.Start(teastore.Config{
		Catalog: db.GenerateSpec{
			Categories: 2, ProductsPerCategory: 8, Users: 4, SeedOrders: 20, Seed: 3,
		},
		Autoscale: &scalectl.Config{
			Interval: time.Hour, // observe state only; no churn during the test
			Services: map[string]scalectl.Bounds{"image": {Min: 1, Max: 2}},
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
	tab, err := loadgen.FetchBreakdown(context.Background(), st.RegistryURL)
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, h := range tab.Headers {
		if h == "autoscale" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("breakdown has no autoscale column: %v", tab.Headers)
	}
	var imageCell string
	for _, row := range tab.Rows {
		switch row[0] {
		case "image":
			imageCell = row[col]
		case "webui":
			if row[col] != "-" {
				t.Errorf("uncontrolled webui has autoscale cell %q, want -", row[col])
			}
		}
	}
	if imageCell == "" || imageCell == "-" {
		t.Fatalf("controlled image service has autoscale cell %q, want replica state:\n%s", imageCell, tab.String())
	}
}

// TestRunSpreadsAcrossWebUIReplicas: with RegistryURL set, sessions pick
// among all live webui replicas, so a replica started at runtime receives
// load without restarting the generator.
func TestRunSpreadsAcrossWebUIReplicas(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load run")
	}
	st := startStack(t)
	if err := st.StartReplica("webui"); err != nil {
		t.Fatal(err)
	}
	if _, err := loadgen.Run(context.Background(), loadgen.Config{
		WebUIURL:       st.WebUIURL,
		PersistenceURL: st.PersistenceURL,
		RegistryURL:    st.RegistryURL,
		Users:          6,
		Warmup:         100 * time.Millisecond,
		Duration:       1500 * time.Millisecond,
		ThinkScale:     0.02,
		CatalogUsers:   4,
		Seed:           5,
	}); err != nil {
		t.Fatal(err)
	}
	urls := st.ReplicaURLs("webui")
	if len(urls) != 2 {
		t.Fatalf("stack has %d webui replicas, want 2", len(urls))
	}
	hc := httpkit.NewClient(2 * time.Second)
	for _, url := range urls {
		var snap httpkit.MetricsSnapshot
		if err := hc.GetJSON(context.Background(), url+"/metrics.json", &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Requests == 0 {
			t.Errorf("webui replica %s received no requests", url)
		}
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	cases := []loadgen.Config{
		{},
		{WebUIURL: "http://x", PersistenceURL: "", Users: 1, Duration: time.Second},
		{WebUIURL: "http://x", PersistenceURL: "http://y", Users: 0, Duration: time.Second},
		{WebUIURL: "http://x", PersistenceURL: "http://y", Users: 1, Duration: 0},
	}
	for i, cfg := range cases {
		if _, err := loadgen.Run(ctx, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunFailsOnEmptyStore(t *testing.T) {
	st := startStack(t)
	st.Store.Reset()
	_, err := loadgen.Run(context.Background(), loadgen.Config{
		WebUIURL:       st.WebUIURL,
		PersistenceURL: st.PersistenceURL,
		Users:          1,
		Duration:       time.Second,
	})
	if err == nil {
		t.Fatal("empty store accepted")
	}
}

func TestRunHonoursContextCancel(t *testing.T) {
	st := startStack(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := loadgen.Run(ctx, loadgen.Config{
		WebUIURL:       st.WebUIURL,
		PersistenceURL: st.PersistenceURL,
		Users:          2,
		Warmup:         10 * time.Second, // cancel should cut this short
		Duration:       10 * time.Second,
		ThinkScale:     0.05,
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancel did not stop the run promptly")
	}
}
