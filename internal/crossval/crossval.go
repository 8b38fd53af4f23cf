// Package crossval cross-validates the simulated topology stack against
// the real one: it runs the same load × replica scale-up sweep in both
// worlds — the real stack through the scalectl characterizer, the
// simulated one through the desim/simcpu engine, with exact MVA as an
// analytic third witness — calibrates the simulator's per-service
// demands from the real sweep's measured busy-time shares, and asserts
// shape agreement between the resulting curves.
//
// The harness deliberately does not compare absolute throughput: the
// wall-clock stack's numbers depend on the CI box, Go's scheduler, and
// injected chaos, none of which the simulator models. What must agree —
// or the simulator cannot be trusted for what-if topology questions —
// is the *shape* of scaling: which replica count each service's knee
// sits at, which service saturates first, and how the normalized
// throughput curves track each other. The verdict gates three things:
//
//   - knee replica count per service within ±KneeSlack between worlds
//     (real vs simulated, and real vs MVA);
//   - saturation ordering of services identical up to gain ties;
//   - per-service normalized-RMSE between throughput curves under
//     tolerance, each world normalized by its own peak.
//
// Calibration (calibrate.go) fits the simulator's request demands so
// its demand vector matches the measured shares, anchored in absolute
// terms by the capped service's saturation law X = W/T; the residual of
// that fit — measured from an actual calibrated simulation run, so RPC
// taxes, heartbeats, and SMT effects count against it — is reported and
// gated too.
//
// Like the characterizer, the harness drives any scalectl.Target, so it
// never imports the stack; cmd/crossval and the acceptance tests supply
// a live teastore.Stack.
package crossval

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/httpkit"
	"repro/internal/scalectl"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Scenario pins down the matched conditions both worlds run under. The
// bottleneck must be expressible in both: a per-replica admission cap on
// the real stack corresponds to the simulated instance's worker-pool
// size, and injected service latency is absorbed by calibration into
// the simulated service demand.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Services are swept, in order, in both worlds.
	Services []string `json:"services"`
	// Caps maps service names to per-replica concurrency: the real
	// stack's max-inflight admission bound and the simulated instance's
	// worker count. The first capped swept service anchors calibration.
	Caps map[string]int `json:"caps,omitempty"`
	// ServiceLatency is per-service injected latency on the real stack
	// (chaos), giving the capped service a residence time that dominates
	// scheduler noise. The simulator sees it only through calibration.
	ServiceLatency map[string]time.Duration `json:"-"`
	// Loads are the closed-loop populations per replica count.
	Loads []int `json:"loads"`
	// MaxReplicas bounds each swept service's replica range.
	MaxReplicas int `json:"maxReplicas"`
	// ThinkScale compresses user think times in both worlds.
	ThinkScale float64 `json:"thinkScale"`
	// Profile is the behaviour model (nil means workload.Browse()).
	Profile *workload.Profile `json:"-"`
}

// QuickScenario is the CI scenario: webui capped at 6 in-flight requests
// per replica with 10ms injected latency (so webui's worker pool is the
// bottleneck and its residence time is dominated by a term both worlds
// agree on), swept against image as a flat control service that should
// not profit from replicas in either world.
func QuickScenario() Scenario {
	return Scenario{
		Name:           "webui-capped-quick",
		Services:       []string{"webui", "image"},
		Caps:           map[string]int{"webui": 6},
		ServiceLatency: map[string]time.Duration{"webui": 10 * time.Millisecond},
		Loads:          []int{16, 32},
		MaxReplicas:    3,
		ThinkScale:     0.02,
	}
}

// ChaosConfig renders the scenario's injected latencies as the stack's
// chaos map, so callers boot the real stack from the same source of
// truth the harness documents.
func (s Scenario) ChaosConfig() map[string]httpkit.ChaosConfig {
	if len(s.ServiceLatency) == 0 {
		return nil
	}
	out := make(map[string]httpkit.ChaosConfig, len(s.ServiceLatency))
	for svc, d := range s.ServiceLatency {
		out[svc] = httpkit.ChaosConfig{Latency: d}
	}
	return out
}

// anchor returns the first swept service with a concurrency cap — the
// service whose saturation law X = W/T anchors absolute calibration.
func (s Scenario) anchor() (service string, workers int) {
	for _, svc := range s.Services {
		if s.Caps[svc] > 0 {
			return svc, s.Caps[svc]
		}
	}
	return "", 0
}

// Tolerances are the shape-agreement gates. Zero fields select defaults.
type Tolerances struct {
	// KneeSlack is the allowed |realKnee − simKnee| (1).
	KneeSlack int `json:"kneeSlack"`
	// MVAKneeSlack is the allowed |realKnee − mvaKnee| (1).
	MVAKneeSlack int `json:"mvaKneeSlack"`
	// CurveNRMSE bounds the per-service normalized RMSE between real and
	// simulated throughput curves (0.30).
	CurveNRMSE float64 `json:"curveNRMSE"`
	// OrderingEpsilon is the max-gain band within which two services are
	// considered tied when comparing saturation orderings (0.15).
	OrderingEpsilon float64 `json:"orderingEpsilon"`
	// Residual bounds the calibration residual: the RMS distance between
	// the calibrated simulator's achieved busy shares and the measured
	// target shares (0.15).
	Residual float64 `json:"residual"`
}

func (t Tolerances) withDefaults() Tolerances {
	if t.KneeSlack <= 0 {
		t.KneeSlack = 1
	}
	if t.MVAKneeSlack <= 0 {
		t.MVAKneeSlack = 1
	}
	if t.CurveNRMSE <= 0 {
		t.CurveNRMSE = 0.30
	}
	if t.OrderingEpsilon <= 0 {
		t.OrderingEpsilon = 0.15
	}
	if t.Residual <= 0 {
		t.Residual = 0.15
	}
	return t
}

// Config parameterizes a cross-validation run. Zero fields select the
// defaults noted per field.
type Config struct {
	// Scenario is the matched experiment; zero value means QuickScenario.
	Scenario Scenario
	// Tolerances gate the verdict.
	Tolerances Tolerances
	// Seed keys both worlds' random streams (1).
	Seed int64
	// StepDuration / Warmup / Settle parameterize the real sweep
	// (1s / 200ms / 300ms).
	StepDuration time.Duration
	Warmup       time.Duration
	Settle       time.Duration
	// CatalogUsers is forwarded to the real load generator (db default).
	CatalogUsers int
	// SimMachine is the simulated host (topology.Rome1S: big enough that
	// CPU capacity never shadows the scenario's concurrency caps).
	SimMachine *topology.Machine
	// SimWarmup / SimMeasure bound each simulated run in virtual time
	// (250ms / 2s).
	SimWarmup  time.Duration
	SimMeasure time.Duration
	// CalibrateOnly stops after calibration: the report carries the
	// fitted demands and residual but no sweep comparison, and only the
	// residual is gated.
	CalibrateOnly bool
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if len(c.Scenario.Services) == 0 {
		c.Scenario = QuickScenario()
	}
	if c.Scenario.MaxReplicas <= 0 {
		c.Scenario.MaxReplicas = 3
	}
	if len(c.Scenario.Loads) == 0 {
		c.Scenario.Loads = []int{16, 32}
	}
	// Every world anchors on "the last load" as the saturated top load
	// (calibration's X at r=1, the sweeps' per-replica peaks), so the
	// axis must be ascending and duplicate-free regardless of input
	// order. Sort a copy: callers keep their slice.
	loads := append([]int(nil), c.Scenario.Loads...)
	sort.Ints(loads)
	c.Scenario.Loads = slices.Compact(loads)
	if c.Scenario.ThinkScale <= 0 {
		c.Scenario.ThinkScale = 0.02
	}
	if c.Scenario.Profile == nil {
		c.Scenario.Profile = workload.Browse()
	}
	c.Tolerances = c.Tolerances.withDefaults()
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StepDuration <= 0 {
		c.StepDuration = time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 200 * time.Millisecond
	}
	if c.Settle <= 0 {
		c.Settle = 300 * time.Millisecond
	}
	if c.SimMachine == nil {
		c.SimMachine = topology.Rome1S()
	}
	if c.SimWarmup <= 0 {
		c.SimWarmup = 250 * time.Millisecond
	}
	if c.SimMeasure <= 0 {
		c.SimMeasure = 2 * time.Second
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// Point is one (replicas, load) cell of a world's throughput surface.
type Point struct {
	Replicas int     `json:"replicas"`
	Load     int     `json:"load"`
	RPS      float64 `json:"rps"`
}

// WorldCurve is one service's scale-up curve in one world.
type WorldCurve struct {
	Service string  `json:"service"`
	Knee    int     `json:"kneeReplicas"`
	MaxGain float64 `json:"maxGain"`
	Points  []Point `json:"points"`
}

// ServiceAgreement is the per-service comparison across all worlds.
type ServiceAgreement struct {
	Service string `json:"service"`
	// Knees per world; the sim and MVA knees use the same KneeOf
	// definition the characterizer applies to measurements.
	RealKnee int `json:"realKnee"`
	SimKnee  int `json:"simKnee"`
	MVAKnee  int `json:"mvaKnee"`
	// KneeAgrees is |real−sim| ≤ KneeSlack; MVAKneeAgrees is
	// |real−mva| ≤ MVAKneeSlack.
	KneeAgrees    bool `json:"kneeAgrees"`
	MVAKneeAgrees bool `json:"mvaKneeAgrees"`
	// MaxGain per world (best/one-replica throughput at the top load).
	RealMaxGain float64 `json:"realMaxGain"`
	SimMaxGain  float64 `json:"simMaxGain"`
	// CurveNRMSE is the normalized RMSE between the real and simulated
	// curves over all shared (replicas, load) cells, each world
	// normalized by its own peak throughput.
	CurveNRMSE  float64 `json:"curveNRMSE"`
	CurveAgrees bool    `json:"curveAgrees"`
	RealCurve   []Point `json:"realCurve"`
	SimCurve    []Point `json:"simCurve"`
	MVACurve    []Point `json:"mvaCurve,omitempty"`
}

// Calibration records the demand fit from measured shares.
type Calibration struct {
	// AnchorService and AnchorWorkers identify the capped service whose
	// saturation law X = W/T set the absolute demand scale; AnchorRPS is
	// its measured one-replica saturated throughput.
	AnchorService string  `json:"anchorService,omitempty"`
	AnchorWorkers int     `json:"anchorWorkers,omitempty"`
	AnchorRPS     float64 `json:"anchorRps,omitempty"`
	// TotalDemandMs is the fitted total residence per request, T.
	TotalDemandMs float64 `json:"totalDemandMs"`
	// TargetShares are the measured busy shares after correcting webui
	// for downstream double counting and excluding the registry.
	TargetShares map[string]float64 `json:"targetShares"`
	// BaselineShares are the uncalibrated simulator's analytic demand
	// shares under the same request mix.
	BaselineShares map[string]float64 `json:"baselineShares"`
	// Factors are the per-service demand multipliers applied to the
	// default request specs.
	Factors map[string]float64 `json:"factors"`
	// AchievedShares are the busy shares an actual calibrated simulation
	// run produced; Residual is their RMS distance from TargetShares.
	AchievedShares map[string]float64 `json:"achievedShares"`
	Residual       float64            `json:"residual"`
}

// Check is one named verdict gate.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Verdict aggregates the gates; Pass is the conjunction.
type Verdict struct {
	Pass   bool    `json:"pass"`
	Checks []Check `json:"checks"`
}

// Report is the cross-validation output written to CROSSVAL.json.
type Report struct {
	Scenario    string      `json:"scenario"`
	Mode        string      `json:"mode"` // "sweep" or "calibrate-only"
	Loads       []int       `json:"loads"`
	MaxReplicas int         `json:"maxReplicas"`
	Seed        int64       `json:"seed"`
	Tolerances  Tolerances  `json:"tolerances"`
	Calibration Calibration `json:"calibration"`
	// Services align with the scenario's sweep order.
	Services []ServiceAgreement `json:"services,omitempty"`
	// RealOrdering / SimOrdering rank services by max gain, most
	// scaling-hungry first — the measured and simulated saturation
	// orderings whose agreement the verdict gates. OrderingAgrees is nil
	// in calibrate-only mode, where the orderings are never evaluated.
	RealOrdering   []string `json:"realOrdering,omitempty"`
	SimOrdering    []string `json:"simOrdering,omitempty"`
	OrderingAgrees *bool    `json:"orderingAgrees,omitempty"`
	Verdict        Verdict  `json:"verdict"`
	Notes          []string `json:"notes,omitempty"`
}

// WriteFile marshals the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a report back, rejecting unknown fields so consumers
// notice schema drift instead of silently dropping data.
func LoadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("crossval: decoding %s: %w", path, err)
	}
	if r.Scenario == "" {
		return nil, fmt.Errorf("crossval: %s has no scenario", path)
	}
	return &r, nil
}

// Run executes the full cross-validation: the real sweep on target, then
// calibration, the simulated and analytic sweeps, and the comparison.
func Run(ctx context.Context, target scalectl.Target, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	cfg.Log("real sweep: services %v, replicas 1..%d, loads %v, step %v",
		cfg.Scenario.Services, cfg.Scenario.MaxReplicas, cfg.Scenario.Loads, cfg.StepDuration)
	real, err := scalectl.Characterize(ctx, target, scalectl.SweepConfig{
		Services:     cfg.Scenario.Services,
		MaxReplicas:  cfg.Scenario.MaxReplicas,
		Loads:        cfg.Scenario.Loads,
		StepDuration: cfg.StepDuration,
		Warmup:       cfg.Warmup,
		Settle:       cfg.Settle,
		ThinkScale:   cfg.Scenario.ThinkScale,
		Profile:      cfg.Scenario.Profile,
		CatalogUsers: cfg.CatalogUsers,
		Seed:         cfg.Seed,
		Log:          cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	return Evaluate(real, cfg)
}

// Evaluate runs the simulated half against an already-measured real
// report — the path cmd/crossval's -real-report flag and offline
// re-analysis use.
func Evaluate(real *scalectl.Report, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	gainFrac := real.KneeGainFrac
	if gainFrac <= 0 {
		gainFrac = 0.10
	}

	cal, specs, err := Calibrate(real, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Log("calibrated: T=%.2fms anchored on %s (W=%d, X=%.1f rps), residual %.4f",
		cal.TotalDemandMs, cal.AnchorService, cal.AnchorWorkers, cal.AnchorRPS, cal.Residual)

	rep := &Report{
		Scenario:    cfg.Scenario.Name,
		Mode:        "sweep",
		Loads:       cfg.Scenario.Loads,
		MaxReplicas: cfg.Scenario.MaxReplicas,
		Seed:        cfg.Seed,
		Tolerances:  cfg.Tolerances,
		Calibration: cal,
		Notes: []string{
			"shape comparison only: each world's curves are normalized by their own peak throughput",
			"simulated demands are calibrated from the real sweep's measured busy shares; residual is from a calibrated simulation run",
			"knees in every world use the characterizer's KneeOf definition at the same gain fraction",
		},
	}
	var checks []Check
	checks = append(checks, Check{
		Name: "calibration-residual",
		OK:   cal.Residual <= cfg.Tolerances.Residual,
		Detail: fmt.Sprintf("residual %.4f ≤ %.2f (achieved vs target busy shares)",
			cal.Residual, cfg.Tolerances.Residual),
	})

	if cfg.CalibrateOnly {
		rep.Mode = "calibrate-only"
		rep.Verdict = verdictOf(checks)
		return rep, nil
	}

	simCurves, err := SimSweep(cfg, specs, gainFrac)
	if err != nil {
		return nil, err
	}
	mvaCurves, err := MVASweep(cfg, cal, gainFrac)
	if err != nil {
		return nil, err
	}

	realGains := map[string]float64{}
	simGains := map[string]float64{}
	for i, svcName := range cfg.Scenario.Services {
		rc := realCurveFor(real, svcName)
		if rc == nil {
			return nil, fmt.Errorf("crossval: real report has no curve for %s", svcName)
		}
		sc := simCurves[i]
		mc := mvaCurves[i]
		agr := ServiceAgreement{
			Service:     svcName,
			RealKnee:    rc.Knee,
			SimKnee:     sc.Knee,
			MVAKnee:     mc.Knee,
			RealMaxGain: rc.MaxGain,
			SimMaxGain:  sc.MaxGain,
			RealCurve:   realPoints(rc),
			SimCurve:    sc.Points,
			MVACurve:    mc.Points,
		}
		agr.KneeAgrees = abs(agr.RealKnee-agr.SimKnee) <= cfg.Tolerances.KneeSlack
		agr.MVAKneeAgrees = abs(agr.RealKnee-agr.MVAKnee) <= cfg.Tolerances.MVAKneeSlack
		agr.CurveNRMSE = NRMSE(agr.RealCurve, agr.SimCurve)
		agr.CurveAgrees = agr.CurveNRMSE <= cfg.Tolerances.CurveNRMSE
		rep.Services = append(rep.Services, agr)
		realGains[svcName] = rc.MaxGain
		simGains[svcName] = sc.MaxGain

		checks = append(checks,
			Check{
				Name: "knee:" + svcName,
				OK:   agr.KneeAgrees,
				Detail: fmt.Sprintf("real %d vs sim %d (±%d)",
					agr.RealKnee, agr.SimKnee, cfg.Tolerances.KneeSlack),
			},
			Check{
				Name: "mva-knee:" + svcName,
				OK:   agr.MVAKneeAgrees,
				Detail: fmt.Sprintf("real %d vs mva %d (±%d)",
					agr.RealKnee, agr.MVAKnee, cfg.Tolerances.MVAKneeSlack),
			},
			Check{
				Name: "curve:" + svcName,
				OK:   agr.CurveAgrees,
				Detail: fmt.Sprintf("normalized RMSE %.3f ≤ %.2f",
					agr.CurveNRMSE, cfg.Tolerances.CurveNRMSE),
			},
		)
		cfg.Log("%s: knee real/sim/mva %d/%d/%d, gain real/sim %.2f/%.2f, NRMSE %.3f",
			svcName, agr.RealKnee, agr.SimKnee, agr.MVAKnee,
			agr.RealMaxGain, agr.SimMaxGain, agr.CurveNRMSE)
	}

	rep.RealOrdering = OrderingOf(realGains)
	rep.SimOrdering = OrderingOf(simGains)
	agrees, violations := OrderingAgrees(realGains, simGains, cfg.Tolerances.OrderingEpsilon)
	rep.OrderingAgrees = &agrees
	detail := fmt.Sprintf("real %v vs sim %v (ties within %.2f gain)",
		rep.RealOrdering, rep.SimOrdering, cfg.Tolerances.OrderingEpsilon)
	if len(violations) > 0 {
		detail += fmt.Sprintf("; inversions: %v", violations)
	}
	checks = append(checks, Check{Name: "saturation-ordering", OK: agrees, Detail: detail})

	rep.Verdict = verdictOf(checks)
	return rep, nil
}

// verdictOf folds checks into a verdict.
func verdictOf(checks []Check) Verdict {
	v := Verdict{Pass: true, Checks: checks}
	for _, c := range checks {
		if !c.OK {
			v.Pass = false
		}
	}
	return v
}

// realCurveFor finds a service's measured curve in the real report.
func realCurveFor(real *scalectl.Report, service string) *scalectl.ServiceCurve {
	for i := range real.Services {
		if real.Services[i].Service == service {
			return &real.Services[i]
		}
	}
	return nil
}

// realPoints projects the characterizer's curve points into the
// harness's cell form.
func realPoints(c *scalectl.ServiceCurve) []Point {
	out := make([]Point, 0, len(c.Points))
	for _, p := range c.Points {
		out = append(out, Point{Replicas: p.Replicas, Load: p.Load, RPS: p.Throughput})
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// thinkMeanSeconds is the scenario's mean think time: the lognormal mean
// exp(σ²/2) × scaled median.
func (c Config) thinkMeanSeconds() float64 {
	p := c.Scenario.Profile
	median := float64(p.ThinkMedian) * c.Scenario.ThinkScale / 1e9
	return median * math.Exp(p.ThinkSigma*p.ThinkSigma/2)
}
