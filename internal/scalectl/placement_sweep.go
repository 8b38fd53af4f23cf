package scalectl

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/internal/topology"
)

// MachineInfo records the machine model a report was measured against,
// plus the host facts that bound the measurement — schema consumers can
// tell a Small-preset CI run from a Rome box at a glance.
type MachineInfo struct {
	Name           string `json:"name"`
	Sockets        int    `json:"sockets"`
	NUMANodes      int    `json:"numaNodes"`
	CCXs           int    `json:"ccxs"`
	Cores          int    `json:"cores"`
	LogicalCPUs    int    `json:"logicalCpus"`
	ThreadsPerCore int    `json:"threadsPerCore"`
	// GOMAXPROCS and HostCPUs describe the process actually measuring:
	// the modelled machine bounds placement, the host bounds throughput.
	GOMAXPROCS int `json:"gomaxprocs"`
	HostCPUs   int `json:"hostCpus"`
}

// MachineInfoOf snapshots a topology model plus the current host.
func MachineInfoOf(m *topology.Machine) MachineInfo {
	return MachineInfo{
		Name:           m.Name(),
		Sockets:        m.NumSockets(),
		NUMANodes:      m.NumNUMA(),
		CCXs:           m.NumCCXs(),
		Cores:          m.NumCores(),
		LogicalCPUs:    m.NumCPUs(),
		ThreadsPerCore: m.NumCPUs() / m.NumCores(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		HostCPUs:       runtime.NumCPU(),
	}
}

// PolicyCurve is one placement policy's measured load curve at a fixed
// replica count.
type PolicyCurve struct {
	Policy string `json:"policy"`
	// Slots are the swept service's slot labels at measurement time and
	// Caps the admission caps those slots derived — the placement the
	// numbers were produced under, kept so curves are explainable.
	Slots  []string     `json:"slots,omitempty"`
	Caps   []int        `json:"caps,omitempty"`
	Points []CurvePoint `json:"points"`
	// PeakRPS is the best throughput across the load levels; P99AtPeakMs
	// the tail latency at that load.
	PeakRPS     float64 `json:"peakRps"`
	P99AtPeakMs float64 `json:"p99AtPeakMs"`
}

// PlacementBlock is the placement comparison attached to a Report: the
// same stack, the same replica count, only the placement policy varied.
type PlacementBlock struct {
	Service    string        `json:"service"`
	Replicas   int           `json:"replicas"`
	SlotCores  int           `json:"slotCores"`
	CapPerCore int           `json:"capPerCore"`
	Policies   []PolicyCurve `json:"policies"`
	// BestPolicy is the policy with the highest peak throughput;
	// BestGainVsPacked its peak over packed's (1.22 ≙ the paper's +22 %),
	// and BestP99DeltaVsPacked the relative tail change at peak (−0.18 ≙
	// the paper's −18 %).
	BestPolicy           string  `json:"bestPolicy"`
	BestGainVsPacked     float64 `json:"bestGainVsPacked"`
	BestP99DeltaVsPacked float64 `json:"bestP99DeltaVsPacked"`
}

// curve finds a policy's curve.
func (b *PlacementBlock) curve(policy string) *PolicyCurve {
	for i := range b.Policies {
		if b.Policies[i].Policy == policy {
			return &b.Policies[i]
		}
	}
	return nil
}

// Finalize computes the best-policy headline numbers from the measured
// curves. Packed is the baseline and must be present.
func (b *PlacementBlock) Finalize() error {
	packed := b.curve("packed")
	if packed == nil || packed.PeakRPS <= 0 {
		return fmt.Errorf("scalectl: placement block lacks a usable packed baseline")
	}
	best := packed
	for i := range b.Policies {
		if b.Policies[i].PeakRPS > best.PeakRPS {
			best = &b.Policies[i]
		}
	}
	b.BestPolicy = best.Policy
	b.BestGainVsPacked = best.PeakRPS / packed.PeakRPS
	if packed.P99AtPeakMs > 0 {
		b.BestP99DeltaVsPacked = (best.P99AtPeakMs - packed.P99AtPeakMs) / packed.P99AtPeakMs
	}
	return nil
}

// Gate enforces the CI placement invariant: packed and ccx were both
// measured, and topology awareness did not lose throughput — the
// directional core of the paper's +22 % claim, robust to noisy runners.
func (b *PlacementBlock) Gate() error {
	packed, ccx := b.curve("packed"), b.curve("ccx")
	if packed == nil || ccx == nil {
		return fmt.Errorf("scalectl: placement gate needs both packed and ccx curves (have %d policies)", len(b.Policies))
	}
	if packed.PeakRPS <= 0 || ccx.PeakRPS <= 0 {
		return fmt.Errorf("scalectl: placement gate saw no throughput (packed %.1f rps, ccx %.1f rps)", packed.PeakRPS, ccx.PeakRPS)
	}
	if ccx.PeakRPS < packed.PeakRPS {
		return fmt.Errorf("scalectl: placement gate failed: ccx peak %.1f rps < packed peak %.1f rps", ccx.PeakRPS, packed.PeakRPS)
	}
	return nil
}

// capReporter is the optional target surface exposing per-replica
// admission caps (teastore.Stack implements it).
type capReporter interface {
	ReplicaCaps(service string) map[string]int
}

// MeasurePolicyCurve drives the closed-loop workload against an
// already-placed stack at its current replica count — one load level at
// a time — and returns the policy's curve. The target's placement is not
// changed here: the caller boots one stack per policy so every policy
// starts from identical cold state.
func MeasurePolicyCurve(ctx context.Context, target Target, policy, service string, cfg SweepConfig) (PolicyCurve, error) {
	cfg = cfg.withDefaults()
	if err := deriveURLs(&cfg, target); err != nil {
		return PolicyCurve{}, err
	}
	curve := PolicyCurve{Policy: policy}
	if st, ok := target.(SlotTarget); ok {
		for _, slot := range st.AllSlots() {
			if slot.Service == service {
				curve.Slots = append(curve.Slots, slot.Label())
			}
		}
	}
	if cr, ok := target.(capReporter); ok {
		caps := cr.ReplicaCaps(service)
		urls := make([]string, 0, len(caps))
		for url := range caps {
			urls = append(urls, url)
		}
		sort.Strings(urls)
		for _, url := range urls {
			curve.Caps = append(curve.Caps, caps[url])
		}
	}
	replicas := len(target.ReplicaURLs(service))
	// Give routing caches one settle window before measuring a fresh boot.
	settleFor(ctx, cfg.Settle)
	for _, load := range cfg.Loads {
		res, err := loadgen.Run(ctx, loadgen.Config{
			WebUIURL:       cfg.WebUIURL,
			PersistenceURL: cfg.PersistenceURL,
			RegistryURL:    cfg.RegistryURL,
			Profile:        cfg.Profile,
			Users:          load,
			Warmup:         cfg.Warmup,
			Duration:       cfg.StepDuration,
			ThinkScale:     cfg.ThinkScale,
			CatalogUsers:   cfg.CatalogUsers,
			Seed:           cfg.Seed + int64(load),
		})
		if err != nil {
			return curve, fmt.Errorf("scalectl: placement load run %s users=%d: %w", policy, load, err)
		}
		point := CurvePoint{
			Replicas:   replicas,
			Load:       load,
			Throughput: res.AchievedRate,
			P50Ms:      float64(res.Latency.P50) / 1e6,
			P99Ms:      float64(res.Latency.P99) / 1e6,
			Errors:     res.Errors,
			Shed:       res.Shed,
		}
		curve.Points = append(curve.Points, point)
		cfg.Log("placement %s users=%d: %.1f rps, p99 %.1fms, %d errors, %d shed",
			policy, load, res.AchievedRate, point.P99Ms, res.Errors, res.Shed)
		if point.Throughput > curve.PeakRPS {
			curve.PeakRPS = point.Throughput
			curve.P99AtPeakMs = point.P99Ms
		}
	}
	return curve, nil
}

// settleFor pauses for the configured settle window, honouring ctx.
func settleFor(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}
