// Command bench is the repository's benchmark: it boots the real six-service
// stack in a child process and measures it from outside — over HTTP with its
// own open- and closed-loop generator, by scraping the observability
// endpoints the stack already serves, and by timing calls into each layer's
// exported functions. See README.md for workloads, metrics and caveats.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// Defaults of a run. runSeconds is BENCHMARK.json's run_seconds; setups is
// how many times a timed run repeats set-up to report its median.
const (
	runSeconds   = 24
	setups       = 3
	quickSeconds = 5
	maxConns     = 4
)

func main() {
	// The child side of a run; see child.go.
	if len(os.Args) == 3 && os.Args[1] == "-serve" {
		if err := serve(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "bench: serve:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run only this workload and end with the contract's JSON result line (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the session scripts and arrival offsets")
	seconds := fs.Int("seconds", 0, fmt.Sprintf("seconds one run measures for (default %d, %d with -quick)", runSeconds, quickSeconds))
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics and span file")
	quick := fs.Bool("quick", false, "smoke run: short phases, one set-up, browse unless -workload is given")
	out := fs.String("out", "bench/out/results.json", "results file; runs are appended, the span files go beside it")
	cmp := fs.Bool("compare", false, "compare two results files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(fs.Args())
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		return 2
	}

	nSetups := setups
	if *quick {
		nSetups = 1
		if *workloadName == "" {
			*workloadName = "browse"
		}
	}
	if *seconds == 0 {
		*seconds = runSeconds
		if *quick {
			*seconds = quickSeconds
		}
	}
	selected := workloads
	if *workloadName != "" {
		wl := findWorkload(*workloadName)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []*workload{wl}
	}
	conns := min(runtime.NumCPU(), maxConns)

	// SIGINT and SIGTERM cancel the run; every path out of a run stops and
	// reaps its child stack.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var runs []runResult
	code := 0
	for _, wl := range selected {
		var res *runResult
		var err error
		if *trace == 1 {
			res, err = runTraced(ctx, wl, *seed, *seconds, conns, filepath.Dir(*out))
		} else {
			res, err = runTimed(ctx, wl, *seed, *seconds, nSetups, conns)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		printRun(os.Stdout, res)
		if !res.Correct {
			code = 1
		}
		runs = append(runs, *res)
	}
	if err := appendResults(*out, conns, runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *workloadName != "" {
		line, err := contractLine(&runs[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	return code
}

func runCompare(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
		return 2
	}
	a, err := readResults(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compare(os.Stdout, a, b) {
		return 1
	}
	return 0
}
