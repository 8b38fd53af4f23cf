// Command loadgen drives user load at a running TeaStore and prints a
// throughput/latency report. -users runs a closed loop (a fixed user
// population, each session's next request waiting for its previous one);
// -rate runs an open loop (arrivals scheduled on a global timeline at
// -rate req/s whatever the stack does). Either way one engine measures:
// latency is recorded coordinated-omission-safely from each arrival's
// intended time, next to the service time from dispatch.
//
// Usage:
//
//	loadgen -webui http://127.0.0.1:PORT -persistence http://127.0.0.1:PORT \
//	        [-users 64] [-duration 30s] [-warmup 5s] [-profile browse]
//	        [-think-scale 1.0] [-catalog-users 100] [-registry http://127.0.0.1:PORT]
//	        [-rate 100 -shape flash -arrivals poisson] [-trace trace.csv]
//
// With -registry set, sessions spread across every live webui replica
// (including ones the autoscaler starts mid-run) and the run ends with a
// per-service p50/p95/p99 latency breakdown collected from every
// instance's /metrics.json endpoint.
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
	"time"

	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	webui := flag.String("webui", "", "WebUI base URL (required)")
	persistenceURL := flag.String("persistence", "", "Persistence base URL (required, for catalog discovery)")
	registryURL := flag.String("registry", "", "Registry base URL (optional; spreads sessions across live webui replicas and prints the per-service latency breakdown after the run)")
	users := flag.Int("users", 64, "closed-loop user population")
	sweep := flag.String("sweep", "", "comma-separated user counts; runs one measurement per count, printing each report (overrides -users)")
	duration := flag.Duration("duration", 30*time.Second, "measured duration")
	warmup := flag.Duration("warmup", 5*time.Second, "warmup before measurement")
	profileName := flag.String("profile", "browse", "behaviour profile: "+strings.Join(workload.ProfileNames(), ", "))
	thinkScale := flag.Float64("think-scale", 1.0, "think-time multiplier")
	catalogUsers := flag.Int("catalog-users", 100, "demo accounts in the store")
	seed := flag.Int64("seed", 1, "random seed")
	timeline := flag.Bool("timeline", false, "print the per-second window breakdown of the measured run")
	retryIdem := flag.Bool("retry-idempotent", false, "retry failed GETs up to twice, re-picking the webui replica")
	ejectOutliers := flag.Bool("eject-outliers", false, "steer sessions away from webui replicas whose latency EWMA stands far above their peers (needs -registry)")

	rate := flag.Float64("rate", 0, "open-loop mean offered rate in req/s; > 0 selects the open loop instead of -users")
	arrivalsName := flag.String("arrivals", "poisson", "open-loop arrival process: "+strings.Join(loadgen.ArrivalNames(), ", "))
	shapeName := flag.String("shape", "steady", "open-loop rate shape: "+strings.Join(loadgen.ShapeNames(), ", "))
	tracePath := flag.String("trace", "", "open-loop rate trace file (\"seconds,rate\" CSV; overrides -shape)")
	maxInflight := flag.Int("max-inflight", 0, "open-loop connection-pool cap (0 → 128); arrivals beyond it queue, then drop")
	flag.Parse()

	usage := func(err any) {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	profile, ok := workload.Profiles()[*profileName]
	if !ok {
		usage(fmt.Sprintf("unknown profile %q (valid: %s)", *profileName, strings.Join(workload.ProfileNames(), ", ")))
	}
	cfg := loadgen.Config{
		WebUIURL:        *webui,
		PersistenceURL:  *persistenceURL,
		RegistryURL:     *registryURL,
		Profile:         profile,
		Warmup:          *warmup,
		Duration:        *duration,
		ThinkScale:      *thinkScale,
		CatalogUsers:    *catalogUsers,
		Seed:            *seed,
		RetryIdempotent: *retryIdem,
		EjectOutliers:   *ejectOutliers,
	}
	counts := []int{*users}
	if *rate > 0 {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "users" || f.Name == "sweep" {
				usage("-rate (open loop) and -" + f.Name + " (closed loop) are mutually exclusive")
			}
		})
		var err error
		if *tracePath != "" {
			cfg.Shape, err = loadgen.LoadTraceShape(*tracePath)
		} else {
			cfg.Shape, err = loadgen.NewShape(*shapeName)
		}
		if err != nil {
			usage(err)
		}
		if cfg.Arrivals, err = loadgen.NewArrivalProcess(*arrivalsName); err != nil {
			usage(err)
		}
		cfg.Rate, cfg.MaxInflight = *rate, *maxInflight
		counts = []int{0} // one run, no population
	} else if *sweep != "" {
		var err error
		if counts, err = parseSweep(*sweep); err != nil {
			usage(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	for _, n := range counts {
		cfg.Users = n
		res, err := loadgen.Run(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		printReport(cfg, res, *timeline)
	}
	printBreakdown(*registryURL)
}

// printReport prints one run's offered-vs-achieved report with both
// latency views; a closed loop simply reports zero drops.
func printReport(cfg loadgen.Config, res loadgen.Result, timeline bool) {
	pacing := fmt.Sprintf("closed loop, %d users", cfg.Users)
	if cfg.Rate > 0 {
		pacing = res.Shape + " × " + res.Arrivals
	}
	fmt.Printf("offered:  %.1f req/s (%s, %d arrivals)\n", res.OfferedRate, pacing, res.Offered)
	fmt.Printf("achieved: %.1f req/s (%d served, %d errors, %d dropped, %d shed, %d retried, %d idem-retried, %d idem-failed)\n",
		res.AchievedRate, res.Served, res.Errors, res.Dropped, res.Shed,
		res.Retries, res.IdempotentRetries, res.IdempotentFailures)
	fmt.Printf("sessions: %d created, peak %d in flight\n", res.SessionsCreated, res.PeakInflight)
	fmt.Printf("latency (CO-safe, from intended arrival): %v\n", res.Latency)
	fmt.Printf("latency (service time, from dispatch):    %v\n", res.ServiceLatency)
	printPerRequest(res.PerRequest)
	if timeline {
		printTimeline(res.Timeline)
	}
}

// printPerRequest prints the per-request-type latency table.
func printPerRequest(perReq map[workload.Request]metrics.Snapshot) {
	var types []workload.Request
	for r := range perReq {
		types = append(types, r)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, r := range types {
		fmt.Printf("  %-10s %v\n", r, perReq[r])
	}
}

// printTimeline prints the per-second window table.
func printTimeline(windows []loadgen.Window) {
	if len(windows) == 0 {
		return
	}
	fmt.Printf("\n%6s %9s %9s %7s %6s %9s %9s %9s\n",
		"sec", "offered", "served", "errors", "shed", "dropped", "p50 ms", "p99 ms")
	for _, w := range windows {
		fmt.Printf("%6d %9d %9d %7d %6d %9d %9.2f %9.2f\n",
			w.Second, w.Offered, w.Requests, w.Errors, w.Shed, w.Dropped,
			float64(w.P50Ns)/1e6, float64(w.P99Ns)/1e6)
	}
}

// printBreakdown fetches the stack-wide per-service latency table via the
// registry; a fresh context is used because the run's context may already
// be cancelled by the interrupt that ended the measurement.
func printBreakdown(registryURL string) {
	if registryURL == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tab, err := loadgen.FetchBreakdown(ctx, registryURL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return
	}
	fmt.Println()
	fmt.Print(tab.String())
}

// parseSweep parses "8,16,32" into user counts.
func parseSweep(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad sweep element %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
