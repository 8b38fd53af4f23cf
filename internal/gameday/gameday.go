// Package gameday runs scripted fault timelines — a gray webui replica,
// a slow backend, a crash, a registry outage, an error storm — against
// the real all-in-one stack under closed-loop load, and grades the
// outcome from the load generator's per-second windows: steady-state
// SLOs, fault-window latency, and recovery time after the fault clears.
// The verdict is written to RESILIENCE.json and gated in CI, so the
// gray-failure defenses (outlier ejection, hedged requests, health-aware
// replica replacement, idempotent retries) are proven against injected
// faults on every change, not just argued for.
package gameday

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/scalectl"
	"repro/internal/teastore"
	"repro/internal/workload"
)

// Durations is a scenario's phase plan. The measured run is
// Steady+Fault+Recovery long: the fault is injected Steady seconds into
// measurement and lasts Fault; Recovery is how long the run keeps
// watching after the clear.
type Durations struct {
	Warmup   time.Duration
	Steady   time.Duration
	Fault    time.Duration
	Recovery time.Duration
}

// QuickDurations compresses a scenario for CI (~27s of measurement per
// variant); FullDurations is the measurement-grade plan.
func QuickDurations() Durations {
	return Durations{Warmup: 2 * time.Second, Steady: 5 * time.Second, Fault: 10 * time.Second, Recovery: 12 * time.Second}
}

// FullDurations sizes the phases for local measurement runs.
func FullDurations() Durations {
	return Durations{Warmup: 3 * time.Second, Steady: 8 * time.Second, Fault: 15 * time.Second, Recovery: 15 * time.Second}
}

// detectionGraceSeconds is how long after injection the fault-window
// grading starts: every defense needs a few requests' worth of evidence
// before it can react, and grading the detection lag as if it were
// steady-state failure would punish any passive (observation-driven)
// defense for existing.
const detectionGraceSeconds = 2

// Options parameterizes a gameday run.
type Options struct {
	// Quick selects the compressed CI durations.
	Quick bool
	// Durations overrides the phase plan (zero → Quick/Full defaults).
	Durations Durations
	// Scenarios filters by name; empty runs all.
	Scenarios []string
	// Users is the closed-loop population (0 → 24).
	Users int
	// DefendedOnly skips the undefended comparison runs (gates needing
	// them are skipped too). The short-mode acceptance test uses it.
	DefendedOnly bool
	// Host binds service listeners (default 127.0.0.1).
	Host string
	// Seed drives catalog and load randomness.
	Seed int64
	// SLO overrides the gates' objective (zero fields → DefaultSLO).
	SLO SLO
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (o Options) durations() Durations {
	if o.Durations != (Durations{}) {
		return o.Durations
	}
	if o.Quick {
		return QuickDurations()
	}
	return FullDurations()
}

func (o Options) users() int {
	if o.Users > 0 {
		return o.Users
	}
	return 16
}

func (o Options) slo() SLO {
	s := o.SLO
	d := DefaultSLO()
	if s.P99 <= 0 {
		s.P99 = d.P99
	}
	if s.ErrorRate <= 0 {
		s.ErrorRate = d.ErrorRate
	}
	if s.RTO <= 0 {
		s.RTO = d.RTO
	}
	return s
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Scenario is one scripted fault timeline.
type Scenario struct {
	Name        string
	Description string
	// CompareUndefended also runs the defenses-off baseline and gates the
	// defended fault-window p99 against it.
	CompareUndefended bool
	// RTOFromInject starts the recovery clock at injection instead of at
	// the clear — crashes have no "clear"; recovery means the routing
	// plane and the reconciler absorbed the loss.
	RTOFromInject bool
	// Inject applies the fault to the running stack. Time-bounded faults
	// (ChaosConfig.For) clear themselves; others (a kill) simply happen.
	Inject func(st *teastore.Stack, fault time.Duration) error
}

// Scenarios returns the gameday catalog in run order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:              "slow-replica",
			Description:       "one of three webui replicas serves at +400ms — the canonical gray failure: alive, registered, passing lookups, and poisoning every session routed to it",
			CompareUndefended: true,
			Inject: func(st *teastore.Stack, fault time.Duration) error {
				return st.SetReplicaChaos("webui", 0, httpkit.ChaosConfig{Latency: 400 * time.Millisecond}.For(fault))
			},
		},
		{
			Name:        "slow-backend",
			Description: "one of two image replicas serves at +300ms; webui's balancer must eject it and hedge the stragglers so users never see the backend tail",
			Inject: func(st *teastore.Stack, fault time.Duration) error {
				return st.SetReplicaChaos("image", 0, httpkit.ChaosConfig{Latency: 300 * time.Millisecond}.For(fault))
			},
		},
		{
			Name:        "error-storm",
			Description: "one image replica answers 80% HTTP 500; caller-side ejection flags it and the reconciler replaces it with a clean replica",
			Inject: func(st *teastore.Stack, fault time.Duration) error {
				return st.SetReplicaChaos("image", 0, httpkit.ChaosConfig{ErrorRate: 0.8}.For(fault))
			},
		},
		{
			Name:          "replica-crash",
			Description:   "a webui replica dies mid-run without deregistering — its lease lingers and callers keep picking the corpse until caches turn over; the reconciler restores the min bound",
			RTOFromInject: true,
			Inject: func(st *teastore.Stack, _ time.Duration) error {
				return st.KillReplica("webui", 0)
			},
		},
		{
			Name:        "registry-outage",
			Description: "the registry blackholes every lookup; routing must ride stale replica lists until discovery returns",
			Inject: func(st *teastore.Stack, fault time.Duration) error {
				return st.SetChaos("registry", httpkit.ChaosConfig{BlackholeRate: 1}.For(fault))
			},
		},
	}
}

// Run executes the selected scenarios and grades them.
func Run(ctx context.Context, opts Options) (*Report, error) {
	slo := opts.slo()
	mode := "full"
	if opts.Quick {
		mode = "quick"
	}
	report := &Report{
		GeneratedAt: time.Now().UTC(),
		Mode:        mode,
		SLOP99Ms:    float64(slo.P99) / 1e6,
		SLOError:    slo.ErrorRate,
		RTOSeconds:  slo.RTO.Seconds(),
		Pass:        true,
	}
	selected, err := selectScenarios(opts.Scenarios)
	if err != nil {
		return nil, err
	}
	for _, sc := range selected {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		opts.logf("scenario %s: %s", sc.Name, sc.Description)
		res, err := runScenario(ctx, sc, opts, slo)
		if err != nil {
			return nil, fmt.Errorf("gameday: scenario %s: %w", sc.Name, err)
		}
		report.Scenarios = append(report.Scenarios, *res)
		if !res.Pass {
			report.Pass = false
		}
	}
	return report, nil
}

func selectScenarios(names []string) ([]Scenario, error) {
	all := Scenarios()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]Scenario{}
	for _, sc := range all {
		byName[sc.Name] = sc
	}
	var out []Scenario
	for _, n := range names {
		sc, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("gameday: unknown scenario %q", n)
		}
		out = append(out, sc)
	}
	return out, nil
}

// runScenario measures the defended variant (and, when the scenario
// compares, the undefended baseline) and evaluates the gates.
func runScenario(ctx context.Context, sc Scenario, opts Options, slo SLO) (*ScenarioResult, error) {
	res := &ScenarioResult{Name: sc.Name, Description: sc.Description}
	def, err := runVariant(ctx, sc, opts, slo, true)
	if err != nil {
		return nil, err
	}
	res.Defended = *def
	if sc.CompareUndefended && !opts.DefendedOnly {
		undef, err := runVariant(ctx, sc, opts, slo, false)
		if err != nil {
			return nil, err
		}
		res.Undefended = undef
	}
	res.Gates = evaluateGates(sc, &res.Defended, res.Undefended, slo)
	res.Pass = true
	for _, g := range res.Gates {
		if !g.Pass {
			res.Pass = false
		}
	}
	return res, nil
}

// runVariant boots a fresh stack, drives it with windowed load, injects
// the fault on schedule, and reduces the timeline to the variant metrics.
func runVariant(ctx context.Context, sc Scenario, opts Options, slo SLO, defended bool) (*Variant, error) {
	d := opts.durations()
	kind := "undefended"
	if defended {
		kind = "defended"
	}
	opts.logf("  %s: boot + %s warmup, fault at +%s for %s, watch %s after clear",
		kind, d.Warmup, d.Steady, d.Fault, d.Recovery)

	st, err := bootStack(opts, defended)
	if err != nil {
		return nil, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		st.Shutdown(sctx)
	}()

	lcfg := loadgen.Config{
		WebUIURL:       st.WebUIURL,
		PersistenceURL: st.PersistenceURL,
		RegistryURL:    st.RegistryURL,
		Users:          opts.users(),
		Warmup:         d.Warmup,
		Duration:       d.Steady + d.Fault + d.Recovery,
		// Moderate offered load: the scenarios grade latency *hygiene* —
		// routing around a sick replica — which only shows when the stack
		// is not CPU-saturated; a queueing-dominated stack hides the gray
		// replica behind noise no defense can route around.
		Profile:      workload.Profiles()["browse"],
		ThinkScale:   0.4,
		CatalogUsers: 10,
		Seed:         opts.Seed,
	}
	if defended {
		lcfg.RetryIdempotent = true
		lcfg.EjectOutliers = true
	}

	type runOut struct {
		res loadgen.Result
		err error
	}
	outCh := make(chan runOut, 1)
	go func() {
		res, err := loadgen.Run(ctx, lcfg)
		outCh <- runOut{res, err}
	}()

	// Inject on schedule. The load generator anchors its own measurement
	// start; the actual injection instant is mapped onto the window axis
	// afterward, so scheduling skew (catalog discovery, scheduler delay)
	// cannot misfile windows.
	var injectAt time.Time
	select {
	case <-time.After(d.Warmup + d.Steady):
		injectAt = time.Now()
		if err := sc.Inject(st, d.Fault); err != nil {
			return nil, fmt.Errorf("injecting fault: %w", err)
		}
		opts.logf("  %s: fault injected", kind)
	case out := <-outCh:
		if out.err != nil {
			return nil, out.err
		}
		return nil, fmt.Errorf("load run ended before the fault was injected")
	case <-ctx.Done():
		<-outCh
		return nil, ctx.Err()
	}

	out := <-outCh
	if out.err != nil {
		return nil, out.err
	}
	res := out.res

	v := &Variant{
		Defended:           defended,
		Users:              lcfg.Users,
		Requests:           res.Served,
		Errors:             res.Errors,
		Shed:               res.Shed,
		IdempotentRetries:  res.IdempotentRetries,
		IdempotentFailures: res.IdempotentFailures,
		Windows:            res.Timeline,
	}
	if v.Requests > 0 {
		v.ErrorRate = float64(v.Errors) / float64(v.Requests)
	}
	v.FaultSecond = clampSecond(injectAt.Sub(res.MeasureStart), len(v.Windows))
	v.ClearSecond = clampSecond(injectAt.Add(d.Fault).Sub(res.MeasureStart), len(v.Windows))
	v.SteadyP99Ms = medianWindowP99Ms(v.Windows[:v.FaultSecond])
	faultFrom := v.FaultSecond + detectionGraceSeconds
	if faultFrom > v.ClearSecond {
		faultFrom = v.ClearSecond
	}
	v.FaultP99Ms = medianWindowP99Ms(v.Windows[faultFrom:v.ClearSecond])
	recoverFrom := v.ClearSecond
	if sc.RTOFromInject {
		// A crash has no clear; recovery is measured from the moment of
		// loss, with the same detection grace every defense needs.
		recoverFrom = v.FaultSecond + detectionGraceSeconds
	}
	v.RecoverySeconds = recoverySeconds(v.Windows, recoverFrom, slo)

	// The stack-side counters — hedges fired, replicas ejected by their
	// callers, replacements — are scraped before shutdown.
	scrapeStack(ctx, st, v)
	opts.logf("  %s: %d requests, %d errors, steady p99 %.1fms, fault p99 %.1fms, recovery %s",
		kind, v.Requests, v.Errors, v.SteadyP99Ms, v.FaultP99Ms, recoveryString(v.RecoverySeconds))
	return v, nil
}

// bootStack starts the scenario stack: three webui and two image
// replicas (every fault targets a replicated pool, so there is always a
// healthy sibling to route to), short discovery and balancer TTLs so the
// routing plane reacts on gameday timescales, and — defended only — the
// autoscale reconciler with health-aware replacement armed.
func bootStack(opts Options, defended bool) (*teastore.Stack, error) {
	cfg := teastore.Config{
		Host: opts.Host,
		Catalog: db.GenerateSpec{
			Categories: 3, ProductsPerCategory: 20, Users: 10, SeedOrders: 80, Seed: opts.Seed,
		},
		Replicas:         map[string]int{"webui": 3, "image": 2},
		RegistryTTL:      2 * time.Second,
		BalancerCacheTTL: 500 * time.Millisecond,
		Resilience: teastore.ResilienceConfig{
			ClientTimeout: 3 * time.Second,
		},
	}
	if defended {
		cfg.Autoscale = &scalectl.Config{
			Services: map[string]scalectl.Bounds{
				"webui": {Min: 3, Max: 4},
				"image": {Min: 2, Max: 3},
			},
			Interval:          500 * time.Millisecond,
			ReplaceAfterTicks: 3,
			ReplaceCooldown:   8 * time.Second,
			DrainTimeout:      5 * time.Second,
			// Gameday grades health, not capacity churn: park scale-downs
			// so a mid-fault shrink never confounds the recovery signal.
			DownStableTicks: 1 << 20,
			DownCooldown:    time.Hour,
		}
	} else {
		cfg.Resilience.DisableHedge = true
		cfg.Resilience.Outlier = httpkit.OutlierConfig{Disabled: true}
	}
	return teastore.Start(cfg)
}

// scrapeStack fills the variant's stack-side counters from every live
// instance's /metrics.json: hedges (and the balanced-call denominator
// for the hedge rate), caller-recorded ejections, and the reconciler's
// replacement count.
func scrapeStack(ctx context.Context, st *teastore.Stack, v *Variant) {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	hc := httpkit.NewClient(2*time.Second, httpkit.WithoutRetries(), httpkit.WithoutBreakers())
	var balancedCalls int64
	ejected := map[string]bool{}
	for _, inst := range st.Instances() {
		var snap httpkit.MetricsSnapshot
		if err := hc.GetJSON(sctx, "http://"+inst.Addr+"/metrics.json", &snap); err != nil {
			continue
		}
		v.Hedges += snap.Resilience.Hedges
		for dest, replicas := range snap.Resilience.Replicas {
			for addr, rc := range replicas {
				balancedCalls += rc.Requests
				if rc.Ejected {
					ejected[dest+" "+addr] = true
				}
			}
		}
	}
	if balancedCalls > 0 {
		v.HedgeRate = float64(v.Hedges) / float64(balancedCalls)
	}
	for key := range ejected {
		v.EjectedReplicas = append(v.EjectedReplicas, key)
	}
	sort.Strings(v.EjectedReplicas)
	if ctl := st.Autoscaler(); ctl != nil {
		for _, ss := range ctl.Status().Services {
			v.Replacements += ss.Replacements
		}
	}
}

// evaluateGates grades one scenario. Every defended run is held to the
// steady-state SLO, the whole-run error budget, and the recovery-time
// objective; comparison scenarios additionally demand the defended
// fault-window p99 stay under half the undefended one, zero failed
// idempotent requests, and the hedge budget.
func evaluateGates(sc Scenario, def *Variant, undef *Variant, slo SLO) []Gate {
	sloMs := float64(slo.P99) / 1e6
	var gates []Gate
	add := func(name string, pass bool, detail string, args ...any) {
		gates = append(gates, Gate{Name: name, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}
	add("steady-slo", def.SteadyP99Ms > 0 && def.SteadyP99Ms <= sloMs,
		"pre-fault windowed p99 %.1fms vs SLO %.0fms", def.SteadyP99Ms, sloMs)
	add("error-budget", def.ErrorRate <= slo.ErrorRate,
		"defended error rate %.3f%% vs budget %.1f%% (%d/%d)",
		100*def.ErrorRate, 100*slo.ErrorRate, def.Errors, def.Requests)
	add("recovery-rto", def.RecoverySeconds >= 0 && def.RecoverySeconds <= slo.RTO.Seconds(),
		"recovered in %s vs RTO %.0fs", recoveryString(def.RecoverySeconds), slo.RTO.Seconds())
	if undef != nil {
		add("defended-p99", undef.FaultP99Ms > 0 && def.FaultP99Ms <= 0.5*undef.FaultP99Ms,
			"defended fault-window p99 %.1fms vs 0.5× undefended %.1fms",
			def.FaultP99Ms, undef.FaultP99Ms)
		add("zero-idempotent-failures", def.IdempotentFailures == 0,
			"%d idempotent requests stayed failed after retries (undefended: %d)",
			def.IdempotentFailures, undef.IdempotentFailures)
		add("hedge-budget", def.HedgeRate <= 0.05,
			"hedge rate %.2f%% vs 5%% budget (%d hedges)", 100*def.HedgeRate, def.Hedges)
	}
	if sc.Name == "error-storm" {
		add("replacement-fired", def.Replacements >= 1,
			"reconciler replaced %d replica(s) of the erroring pool", def.Replacements)
	}
	return gates
}

// medianWindowP99Ms reduces a window span to the median of its per-second
// p99s, in milliseconds. Windows with no successful request carry no p99
// and are skipped; an empty span reports 0.
func medianWindowP99Ms(windows []loadgen.Window) float64 {
	var vals []float64
	for _, w := range windows {
		if w.P99Ns > 0 {
			vals = append(vals, float64(w.P99Ns)/1e6)
		}
	}
	return metrics.Median(vals)
}

// recoverySeconds finds, scanning from the given window index, the first
// run of RecoveryWindows consecutive within-SLO seconds, and returns the
// offset of its start from the scan origin; -1 when no such run exists.
// A window is within SLO when it saw no errors and its p99 (if it has
// one) meets the objective; an idle window counts — no traffic, no
// violation.
func recoverySeconds(windows []loadgen.Window, from int, slo SLO) float64 {
	if from < 0 {
		from = 0
	}
	ok := func(w loadgen.Window) bool {
		return w.Errors == 0 && (w.P99Ns == 0 || w.P99Ns <= int64(slo.P99))
	}
	streak := 0
	for i := from; i < len(windows); i++ {
		if ok(windows[i]) {
			streak++
			if streak >= RecoveryWindows {
				return float64(i - RecoveryWindows + 1 - from)
			}
		} else {
			streak = 0
		}
	}
	return -1
}

// clampSecond maps an offset from measurement start onto a window index.
func clampSecond(offset time.Duration, n int) int {
	sec := int(offset / time.Second)
	if sec < 0 {
		sec = 0
	}
	if sec > n {
		sec = n
	}
	return sec
}

func recoveryString(s float64) string {
	if s < 0 {
		return "never"
	}
	return fmt.Sprintf("%.0fs", s)
}
