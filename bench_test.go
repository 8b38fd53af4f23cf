// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each BenchmarkEx runs its
// experiment at full published scale and reports the figures-of-merit as
// custom metrics; run with
//
//	go test -bench=. -benchtime=1x -benchmem
//
// to regenerate everything once, or -bench=E7 for the headline alone.
// Ablation benchmarks isolate the contribution of individual hardware
// model mechanisms at reduced scale.
package repro_test

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/desim"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/memmodel"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/services/auth"
	imagesvc "repro/internal/services/image"
	"repro/internal/services/recommender"
	"repro/internal/sim"
	"repro/internal/simcpu"
	"repro/internal/simnet"
	"repro/internal/teastore"
	"repro/internal/topology"
	"repro/internal/workload"
)

// full is the published experiment scale; quick variants back ablations.
var full = experiments.Options{Quick: false, Seed: 1}
var quick = experiments.Options{Quick: true, Seed: 1}

func BenchmarkE1ServiceInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.E1ServiceInventory(full)
		if len(tab.Rows) != sim.NumServices {
			b.Fatal("inventory incomplete")
		}
	}
}

func BenchmarkE2ScaleUpCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, points, err := experiments.E2ScaleUpCurve(full)
		if err != nil {
			b.Fatal(err)
		}
		first, last := points[0], points[len(points)-1]
		b.ReportMetric(last.Default, "default-req/s@128cpu")
		b.ReportMetric(last.Default/first.Default, "default-speedup-16to128")
		b.ReportMetric(last.Tuned/first.Tuned, "tuned-speedup-16to128")
	}
}

func BenchmarkE3ServiceUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.E3ServiceUtilization(full)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ServiceStat(sim.WebUI).BusyShare*100, "webui-share-%")
		b.ReportMetric(res.ServiceStat(sim.Image).BusyShare*100, "image-share-%")
	}
}

func BenchmarkE4PerServiceScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, chars, err := experiments.E4PerServiceScaling(full)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(chars[sim.Auth].Efficiency16*100, "auth-eff16-%")
		b.ReportMetric(chars[sim.Persistence].Efficiency16*100, "pers-eff16-%")
		b.ReportMetric(chars[sim.Persistence].Fit.Sigma, "pers-usl-sigma")
	}
}

func BenchmarkE5Replication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, points, err := experiments.E5Replication(full)
		if err != nil {
			b.Fatal(err)
		}
		gain := points[len(points)-1].Throughput/points[0].Throughput - 1
		b.ReportMetric(gain*100, "gain-x8-%")
	}
}

func BenchmarkE6SMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.E6SMT(full)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TwoThreadsPerCore/res.OneThreadPerCore, "smt-gain-x")
	}
}

// BenchmarkE7PinningPolicies is the headline: paper claims +22 %
// throughput and −18 % latency for the optimized configuration over the
// performance-tuned baseline.
func BenchmarkE7PinningPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, outcome, err := experiments.E7PinningPolicies(full)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(outcome.ThroughputGain*100, "tput-gain-%")
		b.ReportMetric(outcome.P99Reduction*100, "p99-cut-%")
		b.ReportMetric(outcome.P50Reduction*100, "p50-cut-%")
	}
}

func BenchmarkE8LatencyDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, out, err := experiments.E8LatencyDistribution(full)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(out.Tuned.P99)/1e6, "tuned-p99-ms")
		b.ReportMetric(float64(out.Optimized.P99)/1e6, "opt-p99-ms")
	}
}

func BenchmarkE9Microarch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows := experiments.E9Microarch(full)
		var micro, spec float64
		var nm, ns int
		for _, r := range rows {
			if len(r.Name) > 8 && r.Name[:8] == "teastore" {
				micro += r.EffectiveIPC
				nm++
			} else if r.Name != "stream-like" {
				spec += r.EffectiveIPC
				ns++
			}
		}
		b.ReportMetric(micro/float64(nm), "microservice-ipc")
		b.ReportMetric(spec/float64(ns), "spec-like-ipc")
	}
}

func BenchmarkE11LoadLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, points, err := experiments.E11LoadLatency(full)
		if err != nil {
			b.Fatal(err)
		}
		heavy := points[len(points)-1]
		b.ReportMetric(heavy.TunedP99Ms, "tuned-p99-ms@2000s/s")
		b.ReportMetric(heavy.OptP99Ms, "opt-p99-ms@2000s/s")
	}
}

func BenchmarkE12NPSSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := experiments.E12NPSSensitivity(full)
		if err != nil {
			b.Fatal(err)
		}
		byKey := map[string]float64{}
		for _, r := range results {
			byKey[r.Machine+"/"+r.Config] = r.Throughput
		}
		b.ReportMetric(byKey["rome-1s-nps4/tuned"]/byKey["rome-1s/tuned"], "tuned-nps4-vs-nps1")
		b.ReportMetric(byKey["rome-1s-nps4/optimized"]/byKey["rome-1s/optimized"], "opt-nps4-vs-nps1")
	}
}

func BenchmarkE10Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.E10Topology()
		if len(tab.Rows) == 0 {
			b.Fatal("no machines")
		}
	}
}

// BenchmarkSuite runs the whole experiment pipeline end-to-end at quick
// scale — the integration check that every table still regenerates. Each
// experiment's own BenchmarkEx covers the full published scale;
// EXPERIMENTS.md numbers come from `cmd/simstudy`.
func BenchmarkSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcome, err := experiments.RunAll(io.Discard, quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(outcome.ThroughputGain*100, "headline-tput-gain-%")
		b.ReportMetric(outcome.P99Reduction*100, "headline-p99-cut-%")
	}
}

// ---- Ablations: knock one hardware mechanism out of the model and watch
// the optimized configuration's edge move. Reduced scale.

// ablationGap runs tuned vs optimized on rome-2s with custom hardware
// parameters and returns optimized/tuned throughput.
func ablationGap(b *testing.B, cpu simcpu.Params, mem memmodel.Params, net simnet.Params) float64 {
	b.Helper()
	mach := topology.Rome2S()
	profile := workload.Browse()
	profile.ThinkMedian /= 10
	run := func(d sim.Deployment, nearest bool) float64 {
		res, err := sim.Run(sim.Config{
			Machine: mach, Deployment: d, Workload: profile,
			Users: 3000, Seed: 1,
			Warmup: desim.Duration(1 * desim.Second), Measure: desim.Duration(3 * desim.Second),
			RouteNearest: nearest, CPU: cpu, Mem: mem, Net: net,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Throughput
	}
	shares := core.WorkloadShares(workload.Browse(), 1)
	tuned := run(placement.Tuned(mach, shares, 0), false)
	plan, err := core.Optimize(mach, workload.Browse(), 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := run(plan.Deployment, plan.RouteNearest)
	return opt / tuned
}

func BenchmarkAblationBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gap := ablationGap(b, simcpu.DefaultParams(), memmodel.DefaultParams(), simnet.DefaultParams())
		b.ReportMetric((gap-1)*100, "opt-vs-tuned-%")
	}
}

// BenchmarkAblationSMTFactor removes SMT contention (factor 1.0): both
// configurations gain, and the pinned plan loses part of its relative
// penalty for packing threads.
func BenchmarkAblationSMTFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cpu := simcpu.DefaultParams()
		cpu.SMTFactor = 1.0
		gap := ablationGap(b, cpu, memmodel.DefaultParams(), simnet.DefaultParams())
		b.ReportMetric((gap-1)*100, "opt-vs-tuned-%")
	}
}

// BenchmarkAblationL3 removes cache contention (max miss = base miss): the
// optimized plan loses its cache-isolation edge.
func BenchmarkAblationL3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mem := memmodel.DefaultParams()
		mem.MaxMissRatio = mem.BaseMissRatio
		gap := ablationGap(b, simcpu.DefaultParams(), mem, simnet.DefaultParams())
		b.ReportMetric((gap-1)*100, "opt-vs-tuned-%")
	}
}

// BenchmarkAblationRPCCost flattens interconnect distance (all levels cost
// the same as same-CCX): nearest routing stops mattering.
func BenchmarkAblationRPCCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := simnet.DefaultParams()
		flat := net.Latency[topology.LevelCCX]
		for l := range net.Latency {
			net.Latency[l] = flat
		}
		net.CrossSocketCPUFactor = 1.0
		gap := ablationGap(b, simcpu.DefaultParams(), memmodel.DefaultParams(), net)
		b.ReportMetric((gap-1)*100, "opt-vs-tuned-%")
	}
}

// ---- Component microbenchmarks (real code paths, -benchmem useful).

func BenchmarkImageRenderPreview(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := imagesvc.Render(int64(i), 125); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImageCacheHit(b *testing.B) {
	svc := imagesvc.New(0)
	item := []imagesvc.Item{{ID: 1, Size: imagesvc.SizePreview}}
	if svc.Images(item)[0] == nil {
		b.Fatal("render failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if svc.Images(item)[0] == nil {
			b.Fatal("cached image missing")
		}
	}
}

func BenchmarkPasswordHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		auth.HashPassword("secret", "salt")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h metrics.Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%1000) * 1e6)
	}
}

// BenchmarkAtomicHistogramRecord guards the per-request recording cost on
// the observability hot path (every HTTP request records once). Budget:
// <100 ns/op uncontended.
func BenchmarkAtomicHistogramRecord(b *testing.B) {
	h := metrics.NewAtomicHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%1000) * 1e6)
	}
}

// BenchmarkAtomicHistogramRecordParallel measures the contended case —
// many handler goroutines recording into one route histogram.
func BenchmarkAtomicHistogramRecordParallel(b *testing.B) {
	h := metrics.NewAtomicHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			h.Record(i % 1000 * 1e6)
		}
	})
}

func BenchmarkRecommenderTrainSlopeOne(b *testing.B) {
	store := db.NewStore()
	if err := store.Generate(db.GenerateSpec{
		Categories: 4, ProductsPerCategory: 50, Users: 50, SeedOrders: 500, Seed: 1,
	}, auth.HashPassword); err != nil {
		b.Fatal(err)
	}
	orders := store.AllOrders()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo := &recommender.SlopeOne{}
		algo.Train(orders)
	}
}

func BenchmarkSimulatorEventRate(b *testing.B) {
	// How fast the discrete-event simulator itself runs: events/sec over
	// a saturated small-machine run.
	mach := topology.Small()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Machine:    mach,
			Deployment: sim.Unpinned(mach, "bench", nil),
			Users:      500,
			Seed:       int64(i),
			Warmup:     desim.Duration(desim.Second),
			Measure:    desim.Duration(2 * desim.Second),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput, "sim-req/s")
	}
}

// BenchmarkRealStackThroughput boots the real six-service store in this
// process and drives it with the HTTP load generator — the non-simulated
// sanity point. Absolute numbers reflect this container, not the paper's
// server.
func BenchmarkRealStackThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stack, err := teastore.Start(teastore.Config{
			Catalog: db.GenerateSpec{
				Categories: 3, ProductsPerCategory: 20, Users: 8, SeedOrders: 50, Seed: 1,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			WebUIURL:       stack.WebUIURL,
			PersistenceURL: stack.PersistenceURL,
			Users:          16,
			Warmup:         500 * time.Millisecond,
			Duration:       3 * time.Second,
			ThinkScale:     0.02,
			CatalogUsers:   8,
			Seed:           int64(i),
		})
		stack.Shutdown(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AchievedRate, "real-req/s")
		b.ReportMetric(float64(res.Latency.P99)/1e6, "real-p99-ms")
		if res.Errors > res.Served/10 {
			b.Fatalf("error rate: %d/%d", res.Errors, res.Served)
		}
	}
}

// BenchmarkQuickE7 is the fast headline check used in development.
func BenchmarkQuickE7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, outcome, err := experiments.E7PinningPolicies(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(outcome.ThroughputGain*100, "tput-gain-%")
	}
}
