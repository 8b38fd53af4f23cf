// Command simstudy runs the paper's full experiment suite on the
// simulated server and prints every regenerated table and figure.
//
// Usage:
//
//	simstudy [-quick] [-seed N] [-experiment E2]
//
// Without -experiment it runs everything (several minutes in full mode;
// seconds with -quick).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	quick := flag.Bool("quick", false, "run a reduced-scale suite (seconds instead of minutes)")
	seed := flag.Int64("seed", 1, "master random seed")
	only := flag.String("experiment", "", "run a single experiment (E1..E12)")
	csvDir := flag.String("csv", "", "also write each experiment's table as CSV into this directory")
	flag.Parse()

	opt := experiments.Options{Quick: *quick, Seed: *seed}
	var err error
	switch {
	case *only != "":
		var tab metrics.Table
		if tab, err = experiments.RunOne(opt, *only); err == nil {
			fmt.Println(tab.String())
		}
	case *csvDir != "":
		err = runWithCSV(*csvDir, opt)
	default:
		_, err = experiments.RunAll(os.Stdout, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simstudy:", err)
		os.Exit(1)
	}
}

// runWithCSV runs the full suite, printing tables and mirroring each as
// <dir>/<id>.csv.
func runWithCSV(dir string, opt experiments.Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r, err := experiments.Run(opt)
	for _, nt := range r.Tables {
		fmt.Println(nt.Table.String())
		path := filepath.Join(dir, nt.ID+".csv")
		if werr := os.WriteFile(path, []byte(nt.Table.CSV()), 0o644); werr != nil {
			return werr
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("Headline (E7): throughput %+.1f %%, p99 %+.1f %% — CSVs in %s\n",
		r.Headline.ThroughputGain*100, -r.Headline.P99Reduction*100, dir)
	return nil
}
