package scalectl

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/httpkit"
	"repro/internal/loadgen"
	"repro/internal/placement"
	"repro/internal/workload"
)

// SweepConfig parameterizes a characterization sweep. Zero fields select
// the defaults noted per field.
type SweepConfig struct {
	// WebUIURL / PersistenceURL / RegistryURL locate the stack under test;
	// empty values are derived from the Target's replica listings.
	WebUIURL       string
	PersistenceURL string
	RegistryURL    string
	// Services to characterize in order (default: the paper's six —
	// webui, auth, persistence, recommender, image, registry). The
	// registry is measured at one replica only: it is the routing plane
	// and cannot be replicated.
	Services []string
	// MaxReplicas bounds each replicable service's sweep (3).
	MaxReplicas int
	// Loads are the closed-loop populations offered per replica count
	// ([4, 12, 24]).
	Loads []int
	// StepDuration is the measured window per (service, replicas, load)
	// cell (2s); Warmup precedes each cell (200ms).
	StepDuration time.Duration
	Warmup       time.Duration
	// Settle is the pause after each replica change, giving routing caches
	// one TTL to pick up the new topology (300ms).
	Settle time.Duration
	// ThinkScale compresses user think times (0.01).
	ThinkScale float64
	// Profile is the user-behaviour model driven against the stack
	// (workload.Browse() when nil). Cross-validation passes the same
	// profile to the simulator so both worlds see an identical mix.
	Profile *workload.Profile
	// CatalogUsers is how many demo accounts exist (db default).
	CatalogUsers int
	// KneeGainFrac is the marginal-throughput fraction below which adding
	// a replica no longer pays (0.10): the knee is the last replica count
	// whose addition still gained at least this much at the highest load.
	KneeGainFrac float64
	// Seed makes the load runs reproducible.
	Seed int64
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Services) == 0 {
		c.Services = []string{"webui", "auth", "persistence", "recommender", "image", "registry"}
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 3
	}
	if len(c.Loads) == 0 {
		c.Loads = []int{4, 12, 24}
	}
	if c.StepDuration <= 0 {
		c.StepDuration = 2 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 200 * time.Millisecond
	}
	if c.Settle <= 0 {
		c.Settle = 300 * time.Millisecond
	}
	if c.ThinkScale <= 0 {
		c.ThinkScale = 0.01
	}
	if c.KneeGainFrac <= 0 {
		c.KneeGainFrac = 0.10
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// CurvePoint is one measured cell of a service's scale-up surface.
type CurvePoint struct {
	Replicas   int     `json:"replicas"`
	Load       int     `json:"load"`
	Throughput float64 `json:"rps"`
	P50Ms      float64 `json:"p50Ms"`
	P99Ms      float64 `json:"p99Ms"`
	Errors     int64   `json:"errors"`
	Shed       int64   `json:"shed"`
}

// ServiceCurve is one service's measured scale-up behaviour.
type ServiceCurve struct {
	Service    string `json:"service"`
	Replicable bool   `json:"replicable"`
	// Knee is the replica count past which another replica gained less
	// than KneeGainFrac throughput at the highest load — the paper's
	// "where scaling this service stops paying".
	Knee int `json:"kneeReplicas"`
	// MaxGain is best-throughput / one-replica-throughput at the highest
	// load.
	MaxGain float64      `json:"maxGain"`
	Points  []CurvePoint `json:"points"`
}

// Report is the characterization output written to SCALEUP.json.
type Report struct {
	LoadLevels   []int          `json:"loads"`
	MaxReplicas  int            `json:"maxReplicas"`
	StepDuration string         `json:"stepDuration"`
	Services     []ServiceCurve `json:"services"`
	// MeasuredShares is each service's fraction of total busy time
	// (latency sum across all instances) during the sweep — the measured
	// analogue of the paper's per-service demand shares. WebUI's share is
	// inflated relative to CPU-demand shares: its wall-clock latency
	// includes waiting on every downstream call.
	MeasuredShares map[string]float64 `json:"measuredShares"`
	// ReferenceShares are the paper-derived demand shares the placement
	// heuristics use (placement.DefaultShares).
	ReferenceShares map[string]float64 `json:"referenceShares"`
	// MixCounts is how many requests of each type the sweep actually
	// completed, summed over every cell — the measured request mix that
	// calibration weighs per-request demands with. Absent in reports
	// written before cross-validation existed.
	MixCounts map[string]int64 `json:"mixCounts,omitempty"`
	// KneeGainFrac records the marginal-gain threshold the knees were
	// computed with, so re-derivations use the same definition.
	KneeGainFrac float64  `json:"kneeGainFrac,omitempty"`
	Notes        []string `json:"notes,omitempty"`
}

// WriteFile marshals the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a characterization report back, rejecting unknown
// fields so consumers notice schema drift instead of silently dropping
// data.
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
		return nil, fmt.Errorf("scalectl: decoding %s: %w", path, err)
	}
	if len(r.Services) == 0 {
		return nil, fmt.Errorf("scalectl: %s has no service curves", path)
	}
	return &r, nil
}

// Characterize sweeps offered load × replica count for each service on a
// live stack — scale one service at a time, drive the full user workload,
// measure end-to-end throughput and latency — and reports per-service
// scale-up curves, knee replica counts, and measured demand shares. The
// Target must start with every swept service at one replica; the sweep
// restores that state between services.
func Characterize(ctx context.Context, target Target, cfg SweepConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := deriveURLs(&cfg, target); err != nil {
		return nil, err
	}
	c := &characterizer{
		target: target,
		cfg:    cfg,
		client: httpkit.NewClient(2*time.Second, httpkit.WithoutRetries(), httpkit.WithoutBreakers()),
	}
	return c.run(ctx)
}

// deriveURLs fills the stack URLs from the Target's replica listings.
func deriveURLs(cfg *SweepConfig, target Target) error {
	pick := func(dst *string, service string) error {
		if *dst != "" {
			return nil
		}
		urls := target.ReplicaURLs(service)
		if len(urls) == 0 {
			return fmt.Errorf("scalectl: target has no %s replica to derive a URL from", service)
		}
		*dst = urls[0]
		return nil
	}
	if err := pick(&cfg.WebUIURL, "webui"); err != nil {
		return err
	}
	if err := pick(&cfg.PersistenceURL, "persistence"); err != nil {
		return err
	}
	return pick(&cfg.RegistryURL, "registry")
}

type characterizer struct {
	target Target
	cfg    SweepConfig
	client *httpkit.Client
	// retiredBusy accumulates drained replicas' busy nanoseconds per
	// service: their counters disappear with them, but their work belongs
	// in the measured demand shares.
	retiredBusy map[string]float64
	// mixCounts accumulates completed requests by type across all cells.
	mixCounts map[string]int64
}

func (c *characterizer) run(ctx context.Context) (*Report, error) {
	c.retiredBusy = map[string]float64{}
	c.mixCounts = map[string]int64{}
	baseline := c.busyByInstance(ctx)

	report := &Report{
		LoadLevels:   c.cfg.Loads,
		MaxReplicas:  c.cfg.MaxReplicas,
		StepDuration: c.cfg.StepDuration.String(),
		KneeGainFrac: c.cfg.KneeGainFrac,
		Notes: []string{
			"throughput and latency are end-to-end through webui while only the named service's replica count varies",
			"registry is measured at one replica: it is the routing plane and cannot be replicated",
			"measuredShares are wall-clock busy-time fractions; webui's share includes downstream wait",
		},
	}

	for _, svc := range c.cfg.Services {
		curve, err := c.sweepService(ctx, svc)
		if err != nil {
			return nil, err
		}
		report.Services = append(report.Services, curve)
	}

	final := c.busyByInstance(ctx)
	report.MeasuredShares = c.shares(baseline, final)
	report.MixCounts = c.mixCounts
	report.ReferenceShares = map[string]float64{}
	for svc, share := range placement.DefaultShares() {
		report.ReferenceShares[svc.String()] = share
	}
	return report, nil
}

// sweepService measures one service's scale-up curve, restoring it to one
// replica afterwards.
func (c *characterizer) sweepService(ctx context.Context, svc string) (ServiceCurve, error) {
	replicable := svc != "registry"
	curve := ServiceCurve{Service: svc, Replicable: replicable, Knee: 1, MaxGain: 1}
	if len(c.target.ReplicaURLs(svc)) == 0 {
		return curve, fmt.Errorf("scalectl: target has no %s service", svc)
	}
	maxR := c.cfg.MaxReplicas
	if !replicable {
		maxR = 1
	}
	defer c.restoreToOne(ctx, svc)

	// Throughput at the highest load per replica count, for the knee.
	peak := make([]float64, 0, maxR)
	for r := 1; r <= maxR; r++ {
		if r > 1 {
			if err := c.target.StartReplica(svc); err != nil {
				return curve, fmt.Errorf("scalectl: scaling %s to %d replicas: %w", svc, r, err)
			}
			c.settle(ctx)
		}
		for _, load := range c.cfg.Loads {
			res, err := loadgen.Run(ctx, loadgen.Config{
				WebUIURL:       c.cfg.WebUIURL,
				PersistenceURL: c.cfg.PersistenceURL,
				RegistryURL:    c.cfg.RegistryURL,
				Profile:        c.cfg.Profile,
				Users:          load,
				Warmup:         c.cfg.Warmup,
				Duration:       c.cfg.StepDuration,
				ThinkScale:     c.cfg.ThinkScale,
				CatalogUsers:   c.cfg.CatalogUsers,
				Seed:           c.cfg.Seed + int64(load),
			})
			if err != nil {
				return curve, fmt.Errorf("scalectl: load run %s r=%d users=%d: %w", svc, r, load, err)
			}
			for req, snap := range res.PerRequest {
				c.mixCounts[req.String()] += snap.Count
			}
			point := CurvePoint{
				Replicas:   r,
				Load:       load,
				Throughput: res.AchievedRate,
				P50Ms:      float64(res.Latency.P50) / 1e6,
				P99Ms:      float64(res.Latency.P99) / 1e6,
				Errors:     res.Errors,
				Shed:       res.Shed,
			}
			curve.Points = append(curve.Points, point)
			c.cfg.Log("%s r=%d users=%d: %.1f rps, p99 %.1fms, %d errors, %d shed",
				svc, r, load, res.AchievedRate, point.P99Ms, res.Errors, res.Shed)
		}
		peak = append(peak, throughputAt(curve.Points, r, c.cfg.Loads[len(c.cfg.Loads)-1]))
	}

	curve.Knee, curve.MaxGain = KneeOf(peak, c.cfg.KneeGainFrac)
	return curve, nil
}

// throughputAt finds the measured throughput for one (replicas, load)
// cell.
func throughputAt(points []CurvePoint, replicas, load int) float64 {
	for _, p := range points {
		if p.Replicas == replicas && p.Load == load {
			return p.Throughput
		}
	}
	return 0
}

// KneeOf locates the scale-up knee in the highest-load throughput series
// (indexed by replicas-1): the last replica count that beat the best
// throughput of every smaller count by at least gainFrac, and the
// overall best-vs-one gain. A step is measured against the best earlier
// peak, not the step before it, so a dip that merely recovers (100, 85,
// 100) gains nothing. The cross-validation harness applies the same
// definition to simulated and analytic curves so knees from different
// worlds are comparable.
func KneeOf(peak []float64, gainFrac float64) (knee int, maxGain float64) {
	knee, maxGain = 1, 1
	if len(peak) == 0 || peak[0] <= 0 {
		return knee, maxGain
	}
	best := peak[0]
	for r := 1; r < len(peak); r++ {
		if (peak[r]-best)/best >= gainFrac {
			knee = r + 1
		}
		best = max(best, peak[r])
	}
	return knee, best / peak[0]
}

// restoreToOne drains a service back to a single replica, banking the
// drained replicas' busy time first.
func (c *characterizer) restoreToOne(ctx context.Context, svc string) {
	for len(c.target.ReplicaURLs(svc)) > 1 {
		urls := c.target.ReplicaURLs(svc)
		newest := urls[len(urls)-1]
		c.retiredBusy[svc] += c.busyOf(ctx, newest)
		if err := c.target.ScaleDown(ctx, svc); err != nil {
			c.cfg.Log("restoring %s to one replica: %v", svc, err)
			return
		}
	}
}

// settle waits for routing caches to notice a topology change.
func (c *characterizer) settle(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-time.After(c.cfg.Settle):
	}
}

// busyOf scrapes one instance's cumulative busy nanoseconds (mean
// latency × request count — the histogram's latency sum).
func (c *characterizer) busyOf(ctx context.Context, url string) float64 {
	var snap httpkit.MetricsSnapshot
	if err := c.client.GetJSON(ctx, url+"/metrics.json", &snap); err != nil {
		return 0
	}
	return snap.Overall.Mean * float64(snap.Overall.Count)
}

// busyByInstance scrapes every live instance's busy nanoseconds.
func (c *characterizer) busyByInstance(ctx context.Context) map[string]float64 {
	out := map[string]float64{}
	for _, svc := range c.target.ServiceNames() {
		for _, url := range c.target.ReplicaURLs(svc) {
			out[svc+"|"+url] = c.busyOf(ctx, url)
		}
	}
	return out
}

// shares turns baseline/final busy scrapes plus the retired-replica bank
// into per-service busy-time fractions.
func (c *characterizer) shares(baseline, final map[string]float64) map[string]float64 {
	busy := map[string]float64{}
	for key, busyNs := range final {
		svc, _, _ := strings.Cut(key, "|")
		busy[svc] += busyNs - baseline[key] // absent baseline → new instance → 0
	}
	for svc, banked := range c.retiredBusy {
		busy[svc] += banked
	}
	var total float64
	for _, b := range busy {
		total += b
	}
	if total <= 0 {
		return nil
	}
	out := make(map[string]float64, len(busy))
	for svc, b := range busy {
		if b < 0 {
			b = 0
		}
		out[svc] = b / total
	}
	return out
}
