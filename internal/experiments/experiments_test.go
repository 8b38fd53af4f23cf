package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

var quick = Options{Quick: true, Seed: 1}

// quickRun is Run(quick), computed once for every test in the package.
var quickRun = sync.OnceValues(func() (Results, error) { return Run(quick) })

// quickResults returns Run(quick), failing t if it failed.
func quickResults(t *testing.T) Results {
	t.Helper()
	r, err := quickRun()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// quickTable returns the table Run(quick) rendered for experiment id.
func quickTable(t *testing.T, id string) metrics.Table {
	t.Helper()
	for _, nt := range quickResults(t).Tables {
		if nt.ID == id {
			return nt.Table
		}
	}
	t.Fatalf("no %s table", id)
	return metrics.Table{}
}

func TestE1Inventory(t *testing.T) {
	tab := quickTable(t, "E1")
	if len(tab.Rows) != sim.NumServices {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), sim.NumServices)
	}
	if !strings.Contains(tab.String(), "webui") {
		t.Fatal("inventory missing webui")
	}
}

func TestE10Topology(t *testing.T) {
	tab := quickTable(t, "E10")
	s := tab.String()
	for _, want := range []string{"rome-1s", "rome-2s", "128", "256"} {
		if !strings.Contains(s, want) {
			t.Fatalf("topology table missing %q:\n%s", want, s)
		}
	}
}

func TestE2ScaleUpShape(t *testing.T) {
	points := quickResults(t).Scale
	if len(points) < 3 {
		t.Fatalf("points = %d", len(points))
	}
	last, first := points[len(points)-1], points[0]
	ideal := float64(last.LogicalCPUs) / float64(first.LogicalCPUs)
	// The os-default curve saturates well below linear: that's the
	// paper's motivation.
	defSpeedup := last.Default / first.Default
	if defSpeedup >= 0.7*ideal {
		t.Fatalf("os-default scaled too well (%.2f× of ideal %.2f×) — saturation story broken", defSpeedup, ideal)
	}
	// The tuned curve keeps scaling and beats default at the top end.
	tunedSpeedup := last.Tuned / first.Tuned
	if tunedSpeedup <= defSpeedup {
		t.Fatalf("tuned (%.2f×) should out-scale default (%.2f×)", tunedSpeedup, defSpeedup)
	}
	if last.Tuned <= last.Default {
		t.Fatal("tuned should beat default at 128 CPUs")
	}
}

func TestE3UtilizationShape(t *testing.T) {
	res := quickResults(t).Util
	top := res.Services[0]
	for _, st := range res.Services {
		if st.BusyShare > top.BusyShare {
			top = st
		}
	}
	if top.Service != sim.WebUI {
		t.Fatalf("top consumer = %v, want webui", top.Service)
	}
	if res.ServiceStat(sim.Registry).BusyShare > 0.02 {
		t.Fatal("registry should be negligible")
	}
}

func TestE4ScalingClasses(t *testing.T) {
	chars := quickResults(t).Classes
	if chars[sim.Auth].Class != core.ScalesLinearly {
		t.Fatalf("auth class = %v, want linear", chars[sim.Auth].Class)
	}
	if chars[sim.Persistence].Class == core.ScalesLinearly {
		t.Fatalf("persistence class = %v, should not be linear", chars[sim.Persistence].Class)
	}
	if chars[sim.Persistence].Fit.Sigma <= chars[sim.Auth].Fit.Sigma {
		t.Fatal("persistence σ should exceed auth σ")
	}
}

func TestE5ReplicationHelps(t *testing.T) {
	points := quickResults(t).Replication
	first, last := points[0], points[len(points)-1]
	if last.Throughput <= first.Throughput*1.05 {
		t.Fatalf("replication gained only %0.f→%0.f req/s", first.Throughput, last.Throughput)
	}
}

func TestE6SMTGainBand(t *testing.T) {
	res := quickResults(t).SMT
	gain := res.TwoThreadsPerCore / res.OneThreadPerCore
	if gain < 1.05 || gain > 1.6 {
		t.Fatalf("SMT gain %.2f× outside the plausible 1.05–1.6× band", gain)
	}
}

func TestE7HeadlineDirection(t *testing.T) {
	outcome := quickResults(t).Headline
	if outcome.ThroughputGain < 0.05 {
		t.Fatalf("optimized gain %.1f %% too small — headline broken", outcome.ThroughputGain*100)
	}
	if outcome.P50Reduction <= 0 {
		t.Fatalf("optimized should cut median latency, got %+.1f %%", -outcome.P50Reduction*100)
	}
	// os-default must trail everything.
	byName := map[string]PolicyResult{}
	for _, p := range outcome.Policies {
		byName[p.Name] = p
	}
	if byName["os-default"].Throughput >= byName["tuned"].Throughput {
		t.Fatal("os-default should trail tuned")
	}
	if byName["optimized"].Throughput <= byName["packed"].Throughput {
		t.Fatal("optimized should beat naive packed pinning")
	}
}

func TestE8DistributionShiftsLeft(t *testing.T) {
	out := quickResults(t).Latency
	if out.Optimized.P50 >= out.Tuned.P50 {
		t.Fatalf("optimized p50 %.1fms should beat tuned %.1fms",
			float64(out.Optimized.P50)/1e6, float64(out.Tuned.P50)/1e6)
	}
	if out.Optimized.P99 >= out.Tuned.P99 {
		t.Fatalf("optimized p99 %.1fms should beat tuned %.1fms",
			float64(out.Optimized.P99)/1e6, float64(out.Tuned.P99)/1e6)
	}
	if len(out.TunedCCDF) == 0 || len(out.OptCCDF) == 0 {
		t.Fatal("CCDFs missing")
	}
}

func TestE9Rows(t *testing.T) {
	tab, rows := quickTable(t, "E9"), quickResults(t).Microarch
	if len(rows) != sim.NumServices+3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(tab.String(), "spec-int-like") {
		t.Fatal("table missing SPEC comparison")
	}
}

// TestRunAllQuick checks what RunAll writes for the quick results the
// other tests share: every table, then the headline.
func TestRunAllQuick(t *testing.T) {
	r := quickResults(t)
	var sb strings.Builder
	if err := r.write(&sb, nil); err != nil {
		t.Fatal(err)
	}
	outcome := r.Headline
	s := sb.String()
	for _, marker := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "Headline"} {
		if !strings.Contains(s, marker) {
			t.Fatalf("suite output missing %s", marker)
		}
	}
	if outcome.ThroughputGain <= 0 {
		t.Fatal("suite headline lost")
	}
}
