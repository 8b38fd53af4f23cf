// Package perfbench is the write-mix harness behind BENCH_PR8.json: a closed-loop
// browse:checkout ≈ 70:30 population drives svc://persistence directly —
// through the same registry-backed balanced client the services use, so
// shard-aware routing is on the measured path — at 1, 2, and 4
// persistence shards. The commit pipeline is configured with a finite
// simulated flush cost, which makes per-shard commit bandwidth roughly
// MaxBatch/FlushCost: at one shard the checkout plane saturates on the
// group-commit flush, and adding shards adds commit bandwidth. The gate
// tracks the 4-vs-1-shard checkout throughput ratio (machine-portable:
// both runs execute on the same host) plus correctness: zero errors and
// stored orders exactly equal to acked checkouts (no duplicates, no
// loss) in every run.
package perfbench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/metrics"
	"repro/internal/services/persistence"
	"repro/internal/services/registry"
	"repro/internal/teastore"
)

// writeMixShards are the shard counts each run sweeps.
var writeMixShards = []int{1, 2, 4}

// writeCommitConfig makes commit bandwidth finite and visible on CI-sized
// hosts: MaxBatch/FlushCost ≈ 800 checkouts/s per shard, and MaxPending
// bounds the backlog so one-shard saturation shows up as backpressure
// latency, not an unbounded queue.
var writeCommitConfig = db.CommitConfig{
	MaxBatch:   4,
	FlushCost:  5 * time.Millisecond,
	MaxPending: 64,
}

// checkoutShare is the checkout fraction of the closed-loop mix.
const checkoutShare = 0.30

// WriteRun is one closed-loop write-mix run at a fixed shard count.
type WriteRun struct {
	Shards        int     `json:"shards"`
	CheckoutRPS   float64 `json:"checkout_rps"`
	BrowseRPS     float64 `json:"browse_rps"`
	CheckoutP50Ms float64 `json:"checkout_p50_ms"`
	CheckoutP99Ms float64 `json:"checkout_p99_ms"`
	Checkouts     int64   `json:"checkouts"`
	Browses       int64   `json:"browses"`
	Errors        int64   `json:"errors"`
	// AckedCheckouts counts distinct successfully acked idempotency keys;
	// StoredOrders counts orders the cluster actually committed beyond the
	// seed. Equal ⇔ zero duplicated and zero lost checkouts.
	AckedCheckouts int64   `json:"acked_checkouts"`
	StoredOrders   int64   `json:"stored_orders"`
	DurationSec    float64 `json:"duration_sec"`
}

// WriteReport is the BENCH_PR8.json document.
type WriteReport struct {
	SchemaVersion int             `json:"schema_version"`
	Mode          string          `json:"mode"` // "quick" or "full"
	GoVersion     string          `json:"go_version"`
	GOMAXPROCS    int             `json:"gomaxprocs"`
	Mix           string          `json:"mix"`
	Commit        db.CommitConfig `json:"commit"`
	Workers       int             `json:"workers"`
	Runs          []WriteRun      `json:"runs"`
	// SpeedupCheckout4v1 is checkout throughput at 4 shards over 1 shard —
	// the scaling ratio the gate tracks. P99Ratio4v1 is checkout p99 at 4
	// shards over 1 shard (≤1 means sharding held or improved tail
	// latency).
	SpeedupCheckout4v1 float64 `json:"speedup_checkout_4v1"`
	P99Ratio4v1        float64 `json:"p99_ratio_4v1"`
}

// Options configures a harness run.
type Options struct {
	// Quick shortens the measured runs for CI.
	Quick bool
	// Log receives progress lines; nil silences them.
	Log func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// RunWriteMix sweeps the write-heavy closed loop across the shard counts
// and assembles the report.
func RunWriteMix(opts Options) (WriteReport, error) {
	rep := WriteReport{
		SchemaVersion: 1,
		Mode:          "full",
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Mix:           fmt.Sprintf("browse:checkout %d:%d", int((1-checkoutShare)*100), int(checkoutShare*100)),
		Commit:        writeCommitConfig,
		Workers:       64,
	}
	duration := 8 * time.Second
	if opts.Quick {
		rep.Mode = "quick"
		duration = 3 * time.Second
	}
	for _, shards := range writeMixShards {
		opts.logf("write mix: %d shard(s), %d workers, %s measured", shards, rep.Workers, duration)
		run, err := runWriteMixOnce(shards, rep.Workers, duration)
		if err != nil {
			return rep, fmt.Errorf("write mix at %d shards: %w", shards, err)
		}
		opts.logf("write mix: %d shard(s) → %.0f checkouts/s p99=%.0fms errors=%d stored=%d acked=%d",
			shards, run.CheckoutRPS, run.CheckoutP99Ms, run.Errors, run.StoredOrders, run.AckedCheckouts)
		rep.Runs = append(rep.Runs, run)
	}
	one, four := findRun(rep.Runs, 1), findRun(rep.Runs, 4)
	if one != nil && four != nil && one.CheckoutRPS > 0 {
		rep.SpeedupCheckout4v1 = four.CheckoutRPS / one.CheckoutRPS
		if one.CheckoutP99Ms > 0 {
			rep.P99Ratio4v1 = four.CheckoutP99Ms / one.CheckoutP99Ms
		}
	}
	return rep, nil
}

func findRun(runs []WriteRun, shards int) *WriteRun {
	for i := range runs {
		if runs[i].Shards == shards {
			return &runs[i]
		}
	}
	return nil
}

// runWriteMixOnce boots one stack at the given shard count and drives it.
func runWriteMixOnce(shards, workers int, duration time.Duration) (WriteRun, error) {
	spec := db.GenerateSpec{
		Categories:          3,
		ProductsPerCategory: 20,
		Users:               64,
		SeedOrders:          60,
		Seed:                7,
	}
	st, err := teastore.Start(teastore.Config{
		Catalog:           spec,
		PersistenceShards: shards,
		Commit:            writeCommitConfig,
	})
	if err != nil {
		return WriteRun{}, err
	}
	defer st.Shutdown(context.Background())

	// The measured client is the same wiring the services use: a
	// registry-backed balancer resolving svc://persistence, which learns
	// the shard map from the instance listing and pins each checkout to
	// the replica fronting the owning shard.
	resolver := registry.NewClient(st.RegistryURL, httpkit.NewClient(2*time.Second))
	bal := httpkit.NewBalancer(resolver, httpkit.BalancerConfig{})
	hc := httpkit.NewClient(10*time.Second,
		httpkit.WithRetry(httpkit.RetryPolicy{}),
		httpkit.WithBalancer(bal))
	pc := persistence.NewClient(httpkit.BalancedURL("persistence"), hc)

	ctx := context.Background()
	cats, err := pc.Categories(ctx)
	if err != nil || len(cats) == 0 {
		return WriteRun{}, fmt.Errorf("discovering catalog: %w", err)
	}
	var productIDs []int64
	for _, c := range cats {
		page, err := pc.Products(ctx, c.ID, 0, spec.ProductsPerCategory)
		if err != nil {
			return WriteRun{}, fmt.Errorf("discovering products: %w", err)
		}
		for _, p := range page.Products {
			productIDs = append(productIDs, p.ID)
		}
	}
	userIDs := make([]int64, spec.Users)
	for i := range userIDs {
		u, err := pc.UserByEmail(ctx, db.EmailFor(i))
		if err != nil {
			return WriteRun{}, fmt.Errorf("discovering users: %w", err)
		}
		userIDs[i] = u.ID
	}
	cluster := st.PersistenceCluster()
	cluster.Flush()
	seeded := int64(cluster.NumOrders())

	var (
		checkouts, browses, errs, acked atomic.Int64
		mu                              sync.Mutex
		checkoutLat                     metrics.Histogram
		wg                              sync.WaitGroup
	)
	// The deadline gates loop ENTRY only; each issued call runs on the
	// background context and completes. A call cancelled mid-flight could
	// be committed server-side without being counted acked, which would
	// make the stored==acked correctness check unfalsifiable.
	runCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
			var local metrics.Histogram
			for runCtx.Err() == nil {
				if rng.Float64() < checkoutShare {
					userID := userIDs[rng.Intn(len(userIDs))]
					items := []db.OrderItem{{
						ProductID: productIDs[rng.Intn(len(productIDs))],
						Quantity:  1 + rng.Intn(3),
					}}
					start := time.Now()
					_, err := pc.PlaceOrderIdempotent(ctx, userID, items, persistence.NewOrderKey())
					if err != nil {
						errs.Add(1)
						continue
					}
					local.Record(time.Since(start).Nanoseconds())
					checkouts.Add(1)
					acked.Add(1)
				} else {
					var err error
					if rng.Intn(4) == 0 {
						_, err = pc.Orders(ctx, userIDs[rng.Intn(len(userIDs))])
					} else {
						cat := cats[rng.Intn(len(cats))]
						_, err = pc.Products(ctx, cat.ID, rng.Intn(spec.ProductsPerCategory), 8)
					}
					if err != nil {
						errs.Add(1)
						continue
					}
					browses.Add(1)
				}
			}
			mu.Lock()
			checkoutLat.Merge(&local)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Every acked checkout must be committed exactly once: flush the
	// pipelines, then compare stored growth with distinct acked keys.
	cluster.Flush()
	stored := int64(cluster.NumOrders()) - seeded

	snap := checkoutLat.Snapshot()
	return WriteRun{
		Shards:         shards,
		CheckoutRPS:    float64(checkouts.Load()) / elapsed.Seconds(),
		BrowseRPS:      float64(browses.Load()) / elapsed.Seconds(),
		CheckoutP50Ms:  float64(snap.P50) / 1e6,
		CheckoutP99Ms:  float64(snap.P99) / 1e6,
		Checkouts:      checkouts.Load(),
		Browses:        browses.Load(),
		Errors:         errs.Load(),
		AckedCheckouts: acked.Load(),
		StoredOrders:   stored,
		DurationSec:    elapsed.Seconds(),
	}, nil
}

// writeSpeedupFloor is the minimum 4-vs-1-shard checkout throughput
// ratio; writeP99Ceiling bounds how much checkout p99 at 4 shards may
// exceed 1 shard's (sharding must hold the tail, with slack for timer
// noise on loaded CI hosts).
const (
	writeSpeedupFloor = 1.8
	writeP99Ceiling   = 1.10
)

// GateWrite validates a write-mix report: the scaling floor, the tail
// bound, and exact write correctness in every run.
func GateWrite(rep WriteReport) []string {
	var violations []string
	for _, want := range writeMixShards {
		if findRun(rep.Runs, want) == nil {
			violations = append(violations, fmt.Sprintf("write: missing %d-shard run", want))
		}
	}
	for _, run := range rep.Runs {
		if run.Errors > 0 {
			violations = append(violations, fmt.Sprintf(
				"write %d-shard: %d errors, want 0", run.Shards, run.Errors))
		}
		if run.StoredOrders != run.AckedCheckouts {
			violations = append(violations, fmt.Sprintf(
				"write %d-shard: stored %d orders but acked %d checkouts (dup or loss)",
				run.Shards, run.StoredOrders, run.AckedCheckouts))
		}
		if run.Checkouts == 0 {
			violations = append(violations, fmt.Sprintf(
				"write %d-shard: no checkouts completed", run.Shards))
		}
	}
	if rep.SpeedupCheckout4v1 < writeSpeedupFloor {
		violations = append(violations, fmt.Sprintf(
			"write: 4-vs-1-shard checkout speedup %.2fx below %.2fx floor",
			rep.SpeedupCheckout4v1, writeSpeedupFloor))
	}
	if rep.P99Ratio4v1 > writeP99Ceiling {
		violations = append(violations, fmt.Sprintf(
			"write: checkout p99 at 4 shards is %.2fx of 1 shard's, above %.2fx ceiling",
			rep.P99Ratio4v1, writeP99Ceiling))
	}
	return violations
}

// WriteSummary renders the write-mix table for humans and the CI job
// summary.
func WriteSummary(rep WriteReport) string {
	var bld []byte
	appendf := func(format string, args ...any) { bld = append(bld, fmt.Sprintf(format, args...)...) }
	appendf("write mix %s (%s mode, %d workers, commit batch=%d flush=%s pending=%d)\n",
		rep.Mix, rep.Mode, rep.Workers, rep.Commit.MaxBatch, rep.Commit.FlushCost, rep.Commit.MaxPending)
	appendf("shards  checkout/s  browse/s  p50 ms  p99 ms  errors  stored==acked\n")
	for _, run := range rep.Runs {
		appendf("%-7d %10.0f %9.0f %7.0f %7.0f %7d  %d==%d\n",
			run.Shards, run.CheckoutRPS, run.BrowseRPS, run.CheckoutP50Ms, run.CheckoutP99Ms,
			run.Errors, run.StoredOrders, run.AckedCheckouts)
	}
	appendf("checkout speedup 4v1: %.2fx (floor %.1fx)   p99 ratio 4v1: %.2f (ceiling %.2f)\n",
		rep.SpeedupCheckout4v1, writeSpeedupFloor, rep.P99Ratio4v1, writeP99Ceiling)
	return string(bld)
}
