// Command scalectl characterizes TeaStore's scale-up behaviour the way
// the paper does: boot the full stack in one process, sweep offered load
// × replica count for one service at a time, and write per-service
// throughput/latency curves, knee replica counts, and measured demand
// shares to SCALEUP.json.
//
// Usage:
//
//	scalectl [-out SCALEUP.json] [-quick]
//	         [-max-replicas 3] [-loads 4,12,24] [-step 5s]
//	         [-services webui,auth,persistence,recommender,image,registry]
//	         [-caps image=2,webui=6] [-service-latency webui=10ms]
//
// -quick compresses the sweep (small catalog, short steps) for CI smoke
// runs; drop it for measurement-grade curves. -caps bounds each replica's
// concurrent requests — the in-process analogue of the paper's
// per-container CPU limits; without caps a single-process stack has no
// per-service bottleneck and every knee lands at one replica. A
// placement policy's effect on this stack is only the caps it would set:
// `topoviz -placement all` prints them (placement.Predict).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/scalectl"
	"repro/internal/teastore"
)

func main() {
	out := flag.String("out", "SCALEUP.json", "report output path")
	quick := flag.Bool("quick", false, "compressed sweep for smoke runs (small catalog, short steps)")
	maxReplicas := flag.Int("max-replicas", 3, "replica counts swept per service (1..N)")
	loadsSpec := flag.String("loads", "", "comma-separated closed-loop populations (default 4,12,24; quick 4,8)")
	step := flag.Duration("step", 5*time.Second, "measured window per sweep cell (quick: 1s)")
	servicesSpec := flag.String("services", "", "comma-separated services to sweep (default: all six)")
	capsSpec := flag.String("caps", "", "per-replica inflight caps, e.g. image=2,webui=6 — models per-instance capacity limits")
	latencySpec := flag.String("service-latency", "", "injected per-request service time, e.g. image=10ms,auth=2ms — models per-instance work so caps translate into finite capacity")
	seed := flag.Int64("seed", 1, "catalog and load seed")
	host := flag.String("host", "127.0.0.1", "address to bind service listeners on")
	flag.Parse()

	caps, err := parseCaps(*capsSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalectl:", err)
		os.Exit(2)
	}
	chaos, err := parseLatencies(*latencySpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalectl:", err)
		os.Exit(2)
	}

	catalog := db.GenerateSpec{
		Categories: 6, ProductsPerCategory: 100, Users: 100, SeedOrders: 400, Seed: *seed,
	}
	loads := []int{4, 12, 24}
	stepDur := *step
	if *quick {
		catalog = db.GenerateSpec{
			Categories: 2, ProductsPerCategory: 10, Users: 8, SeedOrders: 40, Seed: *seed,
		}
		loads = []int{4, 8}
		if stepDur == 5*time.Second { // default untouched
			stepDur = time.Second
		}
	}
	if *loadsSpec != "" {
		parsed, err := parseLoads(*loadsSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalectl:", err)
			os.Exit(2)
		}
		loads = parsed
	}
	var services []string
	if *servicesSpec != "" {
		for _, s := range strings.Split(*servicesSpec, ",") {
			services = append(services, strings.TrimSpace(s))
		}
	}

	stack, err := teastore.Start(teastore.Config{
		Host:               *host,
		Catalog:            catalog,
		ServiceMaxInflight: caps,
		Chaos:              chaos,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalectl:", err)
		os.Exit(1)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		stack.Shutdown(ctx)
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("characterizing scale-up: loads=%v, replicas 1..%d, %s per cell\n",
		loads, *maxReplicas, stepDur)
	report, err := scalectl.Characterize(ctx, stack, scalectl.SweepConfig{
		Services:     services,
		MaxReplicas:  *maxReplicas,
		Loads:        loads,
		StepDuration: stepDur,
		Warmup:       stepDur / 5,
		ThinkScale:   0.02,
		CatalogUsers: catalog.Users,
		Seed:         *seed,
		Log: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalectl:", err)
		os.Exit(1)
	}

	if err := report.WriteFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "scalectl:", err)
		os.Exit(1)
	}

	fmt.Printf("\nscale-up knees (marginal gain < %d%% stops paying):\n", 10)
	for _, curve := range report.Services {
		note := ""
		if !curve.Replicable {
			note = " (routing plane, not replicable)"
		}
		fmt.Printf("  %-12s knee=%d replicas, max gain %.2fx%s\n",
			curve.Service, curve.Knee, curve.MaxGain, note)
	}
	fmt.Println("\nmeasured busy-time shares vs placement reference:")
	names := make([]string, 0, len(report.MeasuredShares))
	for svc := range report.MeasuredShares {
		names = append(names, svc)
	}
	sort.Strings(names)
	for _, svc := range names {
		fmt.Printf("  %-12s measured %5.1f%%  reference %5.1f%%\n",
			svc, 100*report.MeasuredShares[svc], 100*report.ReferenceShares[svc])
	}
	fmt.Printf("\nwrote %s\n", *out)
}

// parseCaps parses "image=2,webui=6" into per-service inflight caps.
func parseCaps(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		n, err := strconv.Atoi(val)
		if !ok || err != nil || name == "" || n <= 0 {
			return nil, fmt.Errorf("bad -caps element %q, want name=count", part)
		}
		out[name] = n
	}
	return out, nil
}

// parseLatencies parses "image=10ms,auth=2ms" into per-service injected
// service times.
func parseLatencies(spec string) (map[string]httpkit.ChaosConfig, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]httpkit.ChaosConfig{}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		d, err := time.ParseDuration(val)
		if !ok || err != nil || name == "" || d <= 0 {
			return nil, fmt.Errorf("bad -service-latency element %q, want name=duration", part)
		}
		out[name] = httpkit.ChaosConfig{Latency: d}
	}
	return out, nil
}

// parseLoads parses "4,12,24" into populations.
func parseLoads(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -loads element %q, want positive integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}
