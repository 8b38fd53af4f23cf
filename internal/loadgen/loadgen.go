// Package loadgen drives a running TeaStore over real HTTP with the same
// user-behaviour model the simulator uses: each virtual session keeps a
// cookie jar, walks the workload profile's Markov chain, and thinks
// between requests. One engine paces every run; what differs between a
// closed and an open loop is only the arrival policy.
//
//   - Closed (Config.Users): a fixed population. A session's next arrival
//     is its own previous completion plus a think time, so a slow stack
//     slows the offered load with it — the paper's LIMBO driver. Nothing
//     is ever dropped, and a session whose walk ends is replaced by a
//     fresh one.
//   - Open (Config.Rate): arrivals are scheduled on a global timeline,
//     RateShape × ArrivalProcess, independent of how fast the stack
//     answers; each is carried by any ready session or a freshly minted
//     one, and an arrival that finds the connection pool full is counted
//     dropped, never skipped.
//
// Either way latency is recorded from the arrival's *intended* instant
// (coordinated-omission-safe) next to the service time from dispatch, and
// every intended arrival is accounted for: Offered = Served + Errors +
// Dropped. Under the closed policy the intended instant is the session's
// own ready time, so the two latency views coincide — which is exactly
// the queueing delay a closed loop cannot see.
package loadgen

import (
	"context"
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/services/persistence"
	"repro/internal/workload"
)

// Config parameterizes a load run. Pacing is Users (closed loop) xor Rate
// with Shape and Arrivals (open loop).
type Config struct {
	// WebUIURL is the storefront base URL.
	WebUIURL string
	// PersistenceURL is used once at start-up to discover the catalog.
	PersistenceURL string
	// RegistryURL, when set, spreads sessions across every live webui
	// replica — including ones the autoscaler starts mid-run — through an
	// httpkit.Balancer over the registry's listing. When empty, or
	// whenever the registry is unreachable or lists no webui, all
	// sessions go to WebUIURL.
	RegistryURL string
	// Profile is the behaviour model; nil means workload.Browse().
	Profile *workload.Profile
	// Users is the closed-loop population.
	Users int
	// Rate is the open-loop mean offered rate in arrivals/second. Every
	// shape integrates to 1, so Rate is the run's true mean whatever the
	// shape.
	Rate float64
	// Shape is the open loop's deterministic rate trajectory (nil →
	// steady); Arrivals its stochastic texture (nil → poisson).
	Shape    RateShape
	Arrivals ArrivalProcess
	// Warmup runs unmeasured (an open loop warms up at the shape's
	// starting rate); only Duration is measured.
	Warmup   time.Duration
	Duration time.Duration
	// MaxInflight caps concurrently outstanding open-loop requests — the
	// engine's connection pool (0 → 128). It does NOT bound offered load;
	// arrivals beyond it queue in the pending buffer. A closed loop has
	// exactly one connection per user.
	MaxInflight int
	// MaxPending bounds open-loop arrivals waiting for a free connection
	// (0 → 4×MaxInflight). An arrival that finds the buffer full is
	// counted dropped — never silently skipped: silent skips are
	// coordinated omission re-imported through the back door.
	MaxPending int
	// MaxSessions caps the open loop's virtual-session pool (0 →
	// 200_000). Sessions are created lazily as arrivals need them, so the
	// pool grows to roughly rate × (think + response time) — far more
	// sessions than inflight requests, as with real user populations.
	MaxSessions int
	// ThinkScale multiplies think times (use ~0.01 in tests); 0 means 1.
	ThinkScale float64
	// CatalogUsers is how many demo accounts exist (db.GenerateSpec.Users).
	CatalogUsers int
	Seed         int64
	// RetryIdempotent re-issues failed GETs (transport errors and 5xx) up
	// to twice, re-picking the webui replica when RegistryURL is set —
	// the client-side defense that turns a gray replica's failures into
	// latency instead of errors. POSTs are never retried, with one
	// exception: checkout carries a client order ID that makes the
	// submission idempotent end-to-end, so a failed checkout is re-issued
	// on the same key and can never double-place.
	RetryIdempotent bool
	// EjectOutliers turns on the session balancer's outlier ejection:
	// sessions move off webui replicas whose response-time EWMA stands
	// far above their peers', and return after a probation. Needs
	// RegistryURL.
	EjectOutliers bool
}

func (cfg *Config) fill() error {
	switch {
	case cfg.Users > 0 && cfg.Rate > 0:
		return fmt.Errorf("loadgen: Users (closed loop) and Rate (open loop) are mutually exclusive")
	case cfg.Users <= 0 && cfg.Rate <= 0:
		return fmt.Errorf("loadgen: Users or Rate must be positive")
	case cfg.Duration <= 0:
		return fmt.Errorf("loadgen: Duration must be positive")
	}
	if cfg.Profile == nil {
		cfg.Profile = workload.Browse()
	}
	if err := cfg.Profile.Validate(); err != nil {
		return err
	}
	if cfg.ThinkScale <= 0 {
		cfg.ThinkScale = 1
	}
	if cfg.CatalogUsers <= 0 {
		cfg.CatalogUsers = db.DefaultGenerateSpec().Users
	}
	if cfg.Users > 0 {
		// One connection per user, and room for all of them to queue:
		// the closed policy can then never drop.
		cfg.MaxInflight, cfg.MaxPending = cfg.Users, cfg.Users
		return nil
	}
	if cfg.Shape == nil {
		cfg.Shape = steadyShape{}
	}
	if cfg.Arrivals == nil {
		cfg.Arrivals = poisson{}
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 128
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4 * cfg.MaxInflight
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 200_000
	}
	return nil
}

// Result is a load run's measurements.
type Result struct {
	// Shape and Arrivals label an open-loop run's schedule (empty for a
	// closed loop); ProfileName the behaviour model.
	Shape       string
	Arrivals    string
	ProfileName string

	// OfferedRate is intended arrivals per measured second; AchievedRate
	// is successful completions per measured second — the run's
	// throughput. Under the open policy the gap between them is the
	// run's verdict on the stack; a closed loop offers only what it can
	// be served.
	OfferedRate  float64
	AchievedRate float64

	// Offered = Served + Errors + Dropped: every intended arrival is
	// accounted for, by construction. Dropped is always 0 closed-loop.
	Offered int64
	Served  int64
	Errors  int64
	Dropped int64
	// Shed counts 503-with-Retry-After answers — the server declining
	// work under load shedding, distinct from real failures; Retries the
	// re-issues after honouring their backoff.
	Shed    int64
	Retries int64
	// IdempotentRetries counts GET re-issues after failures
	// (Config.RetryIdempotent); IdempotentFailures counts GETs that still
	// failed after every retry — the gameday zero-failure gate. Failures
	// are counted whether or not retries are enabled, so defended and
	// undefended runs report on the same scale.
	IdempotentRetries  int64
	IdempotentFailures int64
	// CheckoutRetries counts checkout POST re-issues after failures —
	// safe because every checkout carries a client order ID the
	// persistence plane dedupes on (Config.RetryIdempotent).
	CheckoutRetries int64

	// SessionsCreated counts virtual sessions minted across the whole run
	// (warmup included); PeakInflight the most requests ever outstanding
	// at once. A healthy open loop keeps sessions ≫ inflight; a closed
	// loop mints its population plus one session per ended walk.
	SessionsCreated int64
	PeakInflight    int64

	// Latency is the CO-safe distribution (completion − intended arrival)
	// over successful requests; ServiceLatency is completion − dispatch.
	// Under the open policy their divergence *is* coordinated omission,
	// made visible; under the closed policy they coincide.
	Latency        metrics.Snapshot
	ServiceLatency metrics.Snapshot

	// PerRequest breaks CO-safe latency down by request type.
	PerRequest map[workload.Request]metrics.Snapshot

	// MeasureStart anchors Timeline; Timeline is the per-second view of
	// the measured run, bucketed by intended arrival second, trailing
	// partial window dropped.
	MeasureStart time.Time
	Timeline     []Window
}

// Run executes the configured load against a live stack.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.WebUIURL == "" || cfg.PersistenceURL == "" {
		return Result{}, fmt.Errorf("loadgen: WebUIURL and PersistenceURL are required")
	}
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	cat, err := discover(ctx, cfg.PersistenceURL)
	if err != nil {
		return Result{}, err
	}
	return run(ctx, cfg, newSessionFactory(cfg, cat))
}

// catalog is the discovered store shape sessions issue against.
type catalog struct {
	CategoryIDs []int64
	ProductIDs  []int64
}

// discover fetches the catalog shape from persistence.
func discover(ctx context.Context, persistenceURL string) (catalog, error) {
	client := persistence.NewClient(persistenceURL, nil)
	cats, err := client.Categories(ctx)
	if err != nil {
		return catalog{}, fmt.Errorf("loadgen: discovering catalog: %w", err)
	}
	if len(cats) == 0 {
		return catalog{}, fmt.Errorf("loadgen: store has no categories — generate the catalog first")
	}
	var out catalog
	for _, c := range cats {
		out.CategoryIDs = append(out.CategoryIDs, c.ID)
		page, err := client.Products(ctx, c.ID, 0, 50)
		if err != nil {
			return catalog{}, err
		}
		for _, p := range page.Products {
			out.ProductIDs = append(out.ProductIDs, p.ID)
		}
	}
	if len(out.ProductIDs) == 0 {
		return catalog{}, fmt.Errorf("loadgen: store has no products")
	}
	return out, nil
}
