package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func TestFitUSLRecoversKnownLaw(t *testing.T) {
	truth := USLFit{Lambda: 1000, Sigma: 0.08, Kappa: 0.0005}
	var pts []ScalingPoint
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		pts = append(pts, ScalingPoint{Cores: n, OpsPerSec: truth.Throughput(float64(n))})
	}
	fit, err := FitUSL(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Lambda-truth.Lambda)/truth.Lambda > 0.01 {
		t.Fatalf("λ = %v, want ~%v", fit.Lambda, truth.Lambda)
	}
	if math.Abs(fit.Sigma-truth.Sigma) > 0.005 {
		t.Fatalf("σ = %v, want ~%v", fit.Sigma, truth.Sigma)
	}
	if math.Abs(fit.Kappa-truth.Kappa) > 0.0001 {
		t.Fatalf("κ = %v, want ~%v", fit.Kappa, truth.Kappa)
	}
	if fit.RMSRel > 0.01 {
		t.Fatalf("exact data should fit with ~0 error, rms %v", fit.RMSRel)
	}
}

func TestFitUSLClampsNegatives(t *testing.T) {
	// Perfectly linear data: σ and κ must come out 0, not negative.
	var pts []ScalingPoint
	for _, n := range []int{1, 2, 4, 8} {
		pts = append(pts, ScalingPoint{Cores: n, OpsPerSec: 100 * float64(n)})
	}
	fit, err := FitUSL(pts)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Sigma < 0 || fit.Kappa < 0 {
		t.Fatalf("negative coefficients: %+v", fit)
	}
	if fit.Kappa > 0 {
		t.Fatal("linear fit should not peak (κ > 0)")
	}
}

func TestFitUSLValidation(t *testing.T) {
	cases := [][]ScalingPoint{
		nil,
		{{1, 100}, {2, 150}}, // too few
		{{1, 100}, {2, 150}, {2, 160}},
		{{0, 100}, {2, 150}, {4, 200}},
		{{1, -5}, {2, 150}, {4, 200}},
	}
	for i, pts := range cases {
		if _, err := FitUSL(pts); err == nil {
			t.Errorf("case %d: bad points accepted", i)
		}
	}
}

func TestUSLDerivedQuantities(t *testing.T) {
	f := USLFit{Lambda: 100, Sigma: 0.1, Kappa: 0.001}
	if got := f.AsymptoteOps(); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("Asymptote = %v, want 1000", got)
	}
	if (USLFit{Lambda: 100}).AsymptoteOps() != math.Inf(1) {
		t.Fatal("σ=0 asymptote must be +Inf")
	}
	if f.Throughput(0) != 0 {
		t.Fatal("zero cores edge cases wrong")
	}
	if f.String() == "" {
		t.Fatal("empty String")
	}
}

// Property: fitted curve is non-negative and evaluates finitely over the
// measured domain for arbitrary positive data.
func TestPropertyFitStable(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		pts := make([]ScalingPoint, len(raw))
		for i, r := range raw {
			pts[i] = ScalingPoint{Cores: i + 1, OpsPerSec: float64(r%5000) + 1}
		}
		fit, err := FitUSL(pts)
		if err != nil {
			return true // rejection is fine; instability is not
		}
		for n := 1.0; n <= 64; n *= 2 {
			x := fit.Throughput(n)
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCharacterizeSeparatesServices(t *testing.T) {
	mach := topology.Rome1S()
	cfg := CharacterizeConfig{Machine: mach, CoreCounts: []int{1, 2, 4, 8, 16}, Seed: 1}
	auth, err := CharacterizeService(sim.Auth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pers, err := CharacterizeService(sim.Persistence, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if auth.Efficiency16 <= pers.Efficiency16 {
		t.Fatalf("auth efficiency (%.2f) should beat persistence (%.2f)",
			auth.Efficiency16, pers.Efficiency16)
	}
	if auth.Class > pers.Class {
		t.Fatalf("auth classified %v, persistence %v — ordering wrong", auth.Class, pers.Class)
	}
	if pers.Fit.Sigma <= auth.Fit.Sigma {
		t.Fatalf("persistence σ (%.4f) should exceed auth σ (%.4f)", pers.Fit.Sigma, auth.Fit.Sigma)
	}
	if pers.RecommendedCores >= 32 {
		t.Fatalf("persistence recommended %d cores — should stop early", pers.RecommendedCores)
	}
	if auth.RecommendedCores <= pers.RecommendedCores {
		t.Fatalf("auth should merit more cores than persistence (%d vs %d)",
			auth.RecommendedCores, pers.RecommendedCores)
	}
}

func TestCharacterizeAllCoversServices(t *testing.T) {
	mach := topology.Rome1S()
	all, err := CharacterizeAll(CharacterizeConfig{
		Machine: mach, CoreCounts: []int{1, 2, 4, 8}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != sim.NumServices-1 {
		t.Fatalf("characterized %d services, want %d", len(all), sim.NumServices-1)
	}
	if _, ok := all[sim.Registry]; ok {
		t.Fatal("registry should be skipped")
	}
}

func TestCharacterizeValidation(t *testing.T) {
	if _, err := CharacterizeService(sim.Auth, CharacterizeConfig{}); err == nil {
		t.Fatal("missing machine accepted")
	}
}

func TestScalingClassString(t *testing.T) {
	if ScalesLinearly.String() != "linear" || SerialLimited.String() != "serial-limited" {
		t.Fatal("class names wrong")
	}
	if ScalingClass(9).String() == "" {
		t.Fatal("unknown class should render")
	}
}

func TestAnalyticSharesSaneAndNormalized(t *testing.T) {
	mix := workload.Browse().Mix(quickRand(3), 3000)
	shares := AnalyticShares(sim.DefaultRequestSpecs(), mix)
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	// WebUI serves every request: it must have the largest share.
	for svc, v := range shares {
		if svc != sim.WebUI && v > shares[sim.WebUI] {
			t.Fatalf("%v share (%.3f) exceeds webui (%.3f)", svc, v, shares[sim.WebUI])
		}
	}
	if shares[sim.Registry] <= 0 || shares[sim.Registry] > 0.02 {
		t.Fatalf("registry share %.4f outside (0, 0.02]", shares[sim.Registry])
	}
}

func TestMeanDemand(t *testing.T) {
	mix := workload.Browse().Mix(quickRand(4), 3000)
	specs := sim.DefaultRequestSpecs()
	if MeanDemand(sim.Persistence, specs, mix) <= 0 {
		t.Fatal("persistence mean demand should be positive")
	}
	if MeanDemand(sim.Registry, specs, mix) != 0 {
		t.Fatal("registry mean demand should be zero")
	}
}

func TestOptimizePicksCCDOnRome(t *testing.T) {
	plan, err := Optimize(topology.Rome1S(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CellLevel != placement.CellPerCCD {
		t.Fatalf("cell level = %v, want ccd", plan.CellLevel)
	}
	if !plan.RouteNearest {
		t.Fatal("optimized plan must use nearest routing")
	}
	if err := plan.Deployment.Validate(topology.Rome1S()); err != nil {
		t.Fatal(err)
	}
	if len(plan.Rationale) == 0 {
		t.Fatal("plan should explain itself")
	}
	if plan.Deployment.Name != "optimized" {
		t.Fatalf("deployment name %q", plan.Deployment.Name)
	}
}

func TestOptimizeFallsBackOnCoarseCells(t *testing.T) {
	// A machine with 2-core CCDs: per-CCD cells can't host 5 services, so
	// the optimizer must coarsen to NUMA (= socket here).
	tiny := topology.MustNew(topology.Config{
		Name: "tiny", Sockets: 1, CCDsPerSocket: 4, CCXsPerCCD: 1,
		CoresPerCCX: 2, ThreadsPerCore: 2, NUMAPerSocket: 1,
		L3PerCCX: 16 << 20, BaseGHz: 2, BoostGHz: 3,
	})
	plan, err := Optimize(tiny, workload.Buy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CellLevel == placement.CellPerCCD {
		t.Fatal("optimizer chose undersized CCD cells")
	}
	if err := plan.Deployment.Validate(tiny); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinePlans(t *testing.T) {
	mach := topology.Rome1S()
	plans := BaselinePlans(mach, workload.Browse(), 1)
	for _, name := range []string{"os-default", "tuned", "packed"} {
		plan, ok := plans[name]
		if !ok {
			t.Fatalf("missing plan %q", name)
		}
		if err := plan.Deployment.Validate(mach); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plan.RouteNearest {
			t.Fatalf("%s must not use nearest routing", name)
		}
	}
}

// quickRand returns a seeded random stream for workload sampling.
func quickRand(seed int64) workload.Rand {
	return rand.New(rand.NewSource(seed))
}
