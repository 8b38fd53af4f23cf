// Package openloop is the open-loop scenario harness over the load engine
// (internal/loadgen), as gameday is the fault-drill harness over it.
//
// A closed loop self-throttles at saturation: each blocked user stops
// offering load, so queueing delay vanishes from the measurement exactly
// when it matters. An open loop keeps offering, which is what real
// populations do — users don't stop arriving because the site got slow —
// and is the only load shape under which saturation latency, shedding,
// and autoscaling behaviour can be measured honestly.
package openloop

// Scenario runner: sweeps {rate shape × user profile} open-loop runs
// against the real autoscaling stack and grades each one. Every scenario
// boots the same stack shape — one webui replica with a deterministic
// per-replica capacity (admission cap 12 in-flight × ~170ms service
// latency ≈ 70 req/s) and the scalectl reconciler free to walk
// webui between 1 and 3 replicas — so the replica walk each load shape
// provokes is attributable to the shape, not to stack differences. The
// deterministic capacity matters: it makes the scenarios grade the same
// way on a laptop, a CI runner, or a one-core container, because the
// bottleneck is configured, not inherited from the host.
//
// The verdict is written to OPENLOOP.json and gated in CI by exit
// status. A separate coordinated-omission comparison (closed-loop
// measured throughput replayed as an open-loop offered rate) quantifies
// how much latency the closed loop was hiding.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/loadgen"
	"repro/internal/scalectl"
	"repro/internal/teastore"
	"repro/internal/workload"
)

// Options parameterizes a scenario sweep.
type Options struct {
	// Quick compresses durations for CI.
	Quick bool
	// Scenarios filters by name; empty runs all.
	Scenarios []string
	// SkipCO skips the closed-vs-open coordinated-omission comparison.
	SkipCO bool
	// Host binds service listeners (default 127.0.0.1).
	Host string
	// Seed drives catalog and load randomness.
	Seed int64
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// durations is the sweep's phase plan.
type durations struct {
	warmup  time.Duration
	flash   time.Duration // the flash scenario needs room for the walk up and down
	measure time.Duration // every other scenario
	watch   time.Duration // post-run replica-walk watch
	closed  time.Duration // CO comparison: closed-loop measurement
	open    time.Duration // CO comparison: open-loop replay
}

func (o Options) durations() durations {
	if o.Quick {
		return durations{warmup: 2 * time.Second, flash: 30 * time.Second, measure: 12 * time.Second,
			watch: 12 * time.Second, closed: 6 * time.Second, open: 8 * time.Second}
	}
	return durations{warmup: 3 * time.Second, flash: 60 * time.Second, measure: 30 * time.Second,
		watch: 20 * time.Second, closed: 12 * time.Second, open: 16 * time.Second}
}

// Per-replica capacity knobs: an admission cap of 12 in-flight against
// ~170ms mean service time (100ms injected latency + real backend work,
// with checkout/login POSTs fattening the mean well past the p50) makes
// one webui replica an Erlang loss system with ≈70 req/s capacity,
// independent of host CPU. The cap is deliberately not smaller: with
// Poisson arrivals, admission blocking is a function of offered load in
// Erlangs, and a tight cap sheds heavily well below nominal capacity —
// the sub-saturation scenarios need blocking to be a tail event (one
// shed inserts a 1s Retry-After backoff into the CO-safe distribution,
// so a few percent of sheds drags the p99 to seconds), while the
// overload scenarios need blocking certain.
const (
	replicaCap   = 12
	replicaDelay = 100 * time.Millisecond
)

// calmP99 is the window p99 under which a post-burst second counts as
// recovered; calmWindows consecutive such seconds mark recovery.
const (
	calmP99     = 400 * time.Millisecond
	calmWindows = 3
)

// scenarioSpec is one {shape × profile} sweep entry.
type scenarioSpec struct {
	Name        string
	Description string
	Shape       string
	Arrivals    string
	Profile     string
	Rate        float64
	Flash       bool
	Gates       func(sr *ScenarioResult) []Gate
}

// gate builds one graded check.
func gate(name string, pass bool, detail string, args ...any) Gate {
	return Gate{Name: name, Pass: pass, Detail: fmt.Sprintf(detail, args...)}
}

// ScenarioSpecs returns the sweep catalog in run order. Rates are chosen
// against the ~70 req/s per-replica capacity: the flash peak (3×base) and
// the MMPP bursts (4×mean) overrun one replica, everything else stays
// under it.
func ScenarioSpecs() []scenarioSpec {
	return []scenarioSpec{
		{
			Name:        "flash-crowd",
			Description: "browse traffic at 30 rps mean with a 3× flash burst: the burst overruns one replica's ~70 rps capacity, the reconciler must walk webui up and, once the crowd leaves, back down",
			Shape:       "flash", Arrivals: "poisson", Profile: "browse", Rate: 30, Flash: true,
			Gates: func(sr *ScenarioResult) []Gate {
				return []Gate{
					gate("scale-up", sr.PeakWebuiReplicas >= 2,
						"webui replicas peaked at %d (need ≥2: the burst must force a walk up)", sr.PeakWebuiReplicas),
					gate("scale-down", sr.FinalWebuiReplicas == 1,
						"webui replicas ended at %d (need 1: the walk must come back down)", sr.FinalWebuiReplicas),
					gate("flash-recovery", sr.RecoverySeconds >= 0 && sr.RecoverySeconds <= 10,
						"first %d consecutive calm windows (p99 ≤ %v, no errors/drops) arrived %s after the burst end (need ≤10s)",
						calmWindows, calmP99, recoveryStr(sr.RecoverySeconds)),
					gate("zero-idempotent-failures", sr.IdempotentFailures == 0,
						"%d idempotent requests stayed failed after retries", sr.IdempotentFailures),
				}
			},
		},
		{
			Name:        "diurnal",
			Description: "browse traffic on a compressed diurnal curve (±60% around 18 rps), always under capacity: the sub-saturation control where CO-corrected p99 must stay finite",
			Shape:       "diurnal", Arrivals: "poisson", Profile: "browse", Rate: 18,
			Gates: func(sr *ScenarioResult) []Gate {
				return []Gate{
					gate("co-p99-finite", sr.Dropped == 0 && sr.P99Ms > 0 && sr.P99Ms <= 1500,
						"CO-corrected p99 %.1fms with %d drops (need finite ≤1500ms, 0 drops at sub-saturation)",
						sr.P99Ms, sr.Dropped),
					gate("zero-idempotent-failures", sr.IdempotentFailures == 0,
						"%d idempotent requests stayed failed after retries", sr.IdempotentFailures),
				}
			},
		},
		{
			Name:        "checkout-ramp",
			Description: "checkout-storm (buy-heavy) traffic on a 0.25×→1.75× linear ramp: rising keyed-checkout pressure, every order placed exactly once",
			Shape:       "ramp", Arrivals: "poisson", Profile: "checkout-storm", Rate: 30,
			Gates: func(sr *ScenarioResult) []Gate {
				errBudget := float64(sr.Errors) <= 0.01*float64(sr.Offered)
				return []Gate{
					gate("zero-idempotent-failures", sr.IdempotentFailures == 0,
						"%d idempotent requests stayed failed after retries (%d keyed checkout replays, all deduped)",
						sr.IdempotentFailures, sr.CheckoutRetries),
					gate("error-budget", errBudget,
						"%d errors of %d offered (budget 1%%)", sr.Errors, sr.Offered),
				}
			},
		},
		{
			Name:        "api-burst",
			Description: "apibot scraping at 30 rps mean with MMPP bursts (4× for ~400ms): same mean rate a Poisson stream would carry under capacity, but the bursts overrun the replica and must be shed or dropped, not hidden",
			Shape:       "steady", Arrivals: "mmpp", Profile: "apibot", Rate: 30,
			Gates: func(sr *ScenarioResult) []Gate {
				errBudget := float64(sr.Errors) <= 0.05*float64(sr.Offered)
				return []Gate{
					gate("burst-pressure", sr.Shed+sr.Dropped > 0,
						"%d shed + %d dropped (need >0: MMPP bursts at 4× mean must overrun the ~70 rps replica even though the mean rate would not)",
						sr.Shed, sr.Dropped),
					gate("error-budget", errBudget,
						"%d errors of %d offered (budget 5%%)", sr.Errors, sr.Offered),
				}
			},
		},
	}
}

// RunScenarios executes the sweep and the CO comparison, returning the
// graded report.
func RunScenarios(ctx context.Context, opts Options) (*Report, error) {
	mode := "full"
	if opts.Quick {
		mode = "quick"
	}
	report := &Report{GeneratedAt: time.Now().UTC(), Mode: mode, Pass: true}
	specs, err := selectSpecs(opts.Scenarios)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		opts.logf("scenario %s: %s", spec.Name, spec.Description)
		sr, err := runSpec(ctx, spec, opts)
		if err != nil {
			return nil, fmt.Errorf("openloop: scenario %s: %w", spec.Name, err)
		}
		report.Scenarios = append(report.Scenarios, *sr)
		if !sr.Pass {
			report.Pass = false
		}
	}
	if !opts.SkipCO && len(opts.Scenarios) == 0 {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		opts.logf("co-comparison: closed-loop throughput replayed as open-loop offered rate")
		co, err := runCO(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("openloop: co-comparison: %w", err)
		}
		report.CO = co
		if !co.Pass {
			report.Pass = false
		}
	}
	return report, nil
}

func selectSpecs(names []string) ([]scenarioSpec, error) {
	all := ScenarioSpecs()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]scenarioSpec{}
	for _, s := range all {
		byName[s.Name] = s
	}
	var out []scenarioSpec
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("openloop: unknown scenario %q", n)
		}
		out = append(out, s)
	}
	return out, nil
}

// bootScenarioStack starts the shared scenario stack: one webui replica
// with the deterministic capacity knobs and the reconciler free to walk
// webui 1..3. Replacement is disabled — every replica carries the same
// injected latency, and a replacement mid-walk would confound the
// replica trace the scenario is recording.
func bootScenarioStack(opts Options) (*teastore.Stack, error) {
	return teastore.Start(teastore.Config{
		Host: opts.Host,
		Catalog: db.GenerateSpec{
			Categories: 3, ProductsPerCategory: 20, Users: 10, SeedOrders: 80, Seed: opts.Seed,
		},
		Replicas:           map[string]int{"webui": 1},
		RegistryTTL:        2 * time.Second,
		BalancerCacheTTL:   500 * time.Millisecond,
		Chaos:              map[string]httpkit.ChaosConfig{"webui": {Latency: replicaDelay}},
		ServiceMaxInflight: map[string]int{"webui": replicaCap},
		Resilience:         teastore.ResilienceConfig{ClientTimeout: 3 * time.Second},
		Autoscale: &scalectl.Config{
			Services:          map[string]scalectl.Bounds{"webui": {Min: 1, Max: 3}},
			Interval:          500 * time.Millisecond,
			InflightHigh:      replicaCap,
			DownCooldown:      5 * time.Second,
			DownStableTicks:   3,
			DrainTimeout:      5 * time.Second,
			ReplaceAfterTicks: -1,
		},
	})
}

// runSpec measures one scenario: boot, open-loop run, replica-walk
// sampling through the post-run watch, grading.
func runSpec(ctx context.Context, spec scenarioSpec, opts Options) (*ScenarioResult, error) {
	d := opts.durations()
	dur := d.measure
	if spec.Flash {
		dur = d.flash
	}
	st, err := bootScenarioStack(opts)
	if err != nil {
		return nil, err
	}
	defer shutdownStack(st)

	shape, err := loadgen.NewShape(spec.Shape)
	if err != nil {
		return nil, err
	}
	proc, err := loadgen.NewArrivalProcess(spec.Arrivals)
	if err != nil {
		return nil, err
	}
	profile, ok := workload.Profiles()[spec.Profile]
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", spec.Profile)
	}

	cfg := loadgen.Config{
		WebUIURL:       st.WebUIURL,
		PersistenceURL: st.PersistenceURL,
		RegistryURL:    st.RegistryURL,
		Profile:        profile,
		Rate:           spec.Rate,
		Warmup:         d.warmup,
		Duration:       dur,
		Shape:          shape,
		Arrivals:       proc,
		// Workers park for the full Retry-After second when shed, so the
		// pool needs headroom well beyond the stack's admission caps or a
		// burst of backoffs starves dispatch into drops.
		MaxInflight:  96,
		MaxPending:   1024,
		MaxSessions:  50_000,
		CatalogUsers: 10,
		Seed:         opts.Seed,
		// The defended client: sheds honoured, idempotent (and keyed
		// checkout) retries on, sessions steered around ejected replicas.
		RetryIdempotent: true,
		EjectOutliers:   true,
	}

	type runOut struct {
		res loadgen.Result
		err error
	}
	outCh := make(chan runOut, 1)
	go func() {
		res, err := loadgen.Run(ctx, cfg)
		outCh <- runOut{res, err}
	}()

	// Sample the replica walk once a second while the run executes and
	// for the watch period after it, so the walk back down is captured.
	type walkPoint struct {
		at              time.Time
		desired, actual int
	}
	var points []walkPoint
	sample := func() {
		desired, actual := webuiReplicas(st)
		points = append(points, walkPoint{at: time.Now(), desired: desired, actual: actual})
	}
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	var out runOut
	done := false
	for !done {
		select {
		case <-ticker.C:
			sample()
		case out = <-outCh:
			done = true
		case <-ctx.Done():
			out = <-outCh
			done = true
		}
	}
	if out.err != nil {
		return nil, out.err
	}
	watchUntil := time.Now().Add(d.watch)
	for ctx.Err() == nil && time.Now().Before(watchUntil) {
		select {
		case <-ticker.C:
			sample()
		case <-ctx.Done():
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := out.res

	sr := &ScenarioResult{
		Name:               spec.Name,
		Description:        spec.Description,
		Shape:              res.Shape,
		Arrivals:           res.Arrivals,
		Profile:            res.ProfileName,
		Rate:               spec.Rate,
		DurationSeconds:    dur.Seconds(),
		OfferedRate:        res.OfferedRate,
		AchievedRate:       res.AchievedRate,
		Offered:            res.Offered,
		Served:             res.Served,
		Errors:             res.Errors,
		Dropped:            res.Dropped,
		Shed:               res.Shed,
		IdempotentFailures: res.IdempotentFailures,
		CheckoutRetries:    res.CheckoutRetries,
		SessionsCreated:    res.SessionsCreated,
		PeakInflight:       res.PeakInflight,
		P50Ms:              float64(res.Latency.P50) / 1e6,
		P99Ms:              float64(res.Latency.P99) / 1e6,
		P999Ms:             float64(res.Latency.P999) / 1e6,
		ServiceP99Ms:       float64(res.ServiceLatency.P99) / 1e6,
		RecoverySeconds:    -1,
		Windows:            res.Timeline,
	}
	for _, p := range points {
		sec := int(p.at.Sub(res.MeasureStart) / time.Second)
		if sec < 0 {
			continue // warmup samples predate the window axis
		}
		sr.ReplicaWalk = append(sr.ReplicaWalk, ReplicaSample{Second: sec, Desired: p.desired, Actual: p.actual})
		if p.actual > sr.PeakWebuiReplicas {
			sr.PeakWebuiReplicas = p.actual
		}
		sr.FinalWebuiReplicas = p.actual
	}
	if spec.Flash {
		_, to := loadgen.FlashWindow()
		sr.BurstEndSecond = int(to*dur.Seconds()) + 1
		sr.RecoverySeconds = recoveryAfter(sr.Windows, sr.BurstEndSecond)
	}

	sr.Gates = append(sr.Gates, gate("accounting",
		sr.Offered > 0 && sr.Offered == sr.Served+sr.Errors+sr.Dropped,
		"offered %d = served %d + errors %d + dropped %d — no arrival silently skipped",
		sr.Offered, sr.Served, sr.Errors, sr.Dropped))
	if spec.Gates != nil {
		sr.Gates = append(sr.Gates, spec.Gates(sr)...)
	}
	sr.Pass = true
	for _, g := range sr.Gates {
		if !g.Pass {
			sr.Pass = false
		}
	}
	opts.logf("  %s: offered %.1f rps, achieved %.1f, p99(CO) %.1fms, shed %d, dropped %d, replicas peak %d final %d",
		spec.Name, sr.OfferedRate, sr.AchievedRate, sr.P99Ms, sr.Shed, sr.Dropped,
		sr.PeakWebuiReplicas, sr.FinalWebuiReplicas)
	return sr, nil
}

// runCO runs the coordinated-omission comparison on an unthrottled
// single-replica stack. A closed loop of 32 near-zero-think users works
// the stack near its knee and reports its own achieved throughput X and
// p99 — the healthy-looking numbers a closed-loop benchmark would
// publish. The open loop then offers 1.5×X: a closed loop's achieved
// rate is a biased-down estimate of capacity (its own population
// throttles with the stack, and on a contended host deep fixed
// concurrency depresses throughput further), so a thin margin can land
// under the true knee and measure nothing; half again past X crosses it
// with certainty. Both runs then move roughly the same *achieved*
// throughput — the stack serves at capacity either way — but the closed
// loop's p99 is bounded by its own population (it stops offering while
// everyone is waiting) while the open loop's backlog and CO-safe latency
// grow for as long as the overload lasts. The ratio between the two p99s
// is the coordinated omission the closed loop never saw.
func runCO(ctx context.Context, opts Options) (*COComparison, error) {
	d := opts.durations()
	st, err := teastore.Start(teastore.Config{
		Host: opts.Host,
		Catalog: db.GenerateSpec{
			Categories: 3, ProductsPerCategory: 20, Users: 10, SeedOrders: 80, Seed: opts.Seed,
		},
		Replicas:           map[string]int{"webui": 1},
		ServiceMaxInflight: map[string]int{"webui": -1}, // no shedding: queueing must be honest
		Resilience:         teastore.ResilienceConfig{ClientTimeout: 10 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	defer shutdownStack(st)

	profile := workload.Profiles()["apibot"]
	const closedUsers = 32
	closed, err := loadgen.Run(ctx, loadgen.Config{
		WebUIURL:       st.WebUIURL,
		PersistenceURL: st.PersistenceURL,
		Users:          closedUsers,
		Warmup:         2 * time.Second,
		Duration:       d.closed,
		Profile:        profile,
		ThinkScale:     0.05,
		CatalogUsers:   10,
		Seed:           opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	co := &COComparison{
		ClosedUsers: closedUsers,
		ClosedRate:  closed.AchievedRate,
		ClosedP99Ms: float64(closed.Latency.P99) / 1e6,
	}
	if closed.AchievedRate <= 0 {
		return nil, fmt.Errorf("closed-loop run achieved no throughput")
	}
	co.OfferedRate = closed.AchievedRate * 1.5
	open, err := loadgen.Run(ctx, loadgen.Config{
		WebUIURL:       st.WebUIURL,
		PersistenceURL: st.PersistenceURL,
		Profile:        profile,
		Rate:           co.OfferedRate,
		Warmup:         time.Second,
		Duration:       d.open,
		MaxInflight:    96,
		MaxPending:     1 << 14,
		MaxSessions:    50_000,
		ThinkScale:     0.05,
		CatalogUsers:   10,
		Seed:           opts.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	co.OpenAchievedRate = open.AchievedRate
	co.OpenP99Ms = float64(open.Latency.P99) / 1e6
	co.OpenServiceP99Ms = float64(open.ServiceLatency.P99) / 1e6
	co.OpenDropped = open.Dropped
	if co.ClosedP99Ms > 0 {
		co.RatioP99 = co.OpenP99Ms / co.ClosedP99Ms
	}
	co.Gates = []Gate{
		gate("co-queueing-revealed", co.ClosedP99Ms > 0 && co.OpenP99Ms >= 2*co.ClosedP99Ms,
			"open-loop CO-safe p99 %.1fms (achieved %.1f rps) vs closed-loop p99 %.1fms (achieved %.1f rps): same stack serving at capacity either way (need ≥2×: the closed loop hides queueing delay at saturation)",
			co.OpenP99Ms, co.OpenAchievedRate, co.ClosedP99Ms, co.ClosedRate),
	}
	co.Pass = true
	for _, g := range co.Gates {
		if !g.Pass {
			co.Pass = false
		}
	}
	opts.logf("  closed %.1f rps p99 %.1fms → open offered %.1f rps p99(CO) %.1fms (%.1f×)",
		co.ClosedRate, co.ClosedP99Ms, co.OfferedRate, co.OpenP99Ms, co.RatioP99)
	return co, nil
}

// webuiReplicas reads the reconciler's current desired/actual counts.
func webuiReplicas(st *teastore.Stack) (desired, actual int) {
	ctl := st.Autoscaler()
	if ctl == nil {
		n := len(st.ReplicaURLs("webui"))
		return n, n
	}
	for _, ss := range ctl.Status().Services {
		if ss.Service == "webui" {
			return ss.Desired, ss.Actual
		}
	}
	return 0, 0
}

// recoveryAfter finds, scanning from the given window index, the first
// run of calmWindows consecutive calm seconds (no errors, no drops, p99
// within calmP99) and returns its start's offset from the scan origin;
// -1 when the run never calmed down.
func recoveryAfter(windows []loadgen.Window, from int) float64 {
	if from < 0 {
		from = 0
	}
	calm := func(w loadgen.Window) bool {
		return w.Errors == 0 && w.Dropped == 0 && (w.P99Ns == 0 || w.P99Ns <= int64(calmP99))
	}
	streak := 0
	for i := from; i < len(windows); i++ {
		if calm(windows[i]) {
			streak++
			if streak >= calmWindows {
				return float64(i - calmWindows + 1 - from)
			}
		} else {
			streak = 0
		}
	}
	return -1
}

func recoveryStr(s float64) string {
	if s < 0 {
		return "never"
	}
	return fmt.Sprintf("%.0fs", s)
}

func shutdownStack(st *teastore.Stack) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st.Shutdown(ctx)
}
