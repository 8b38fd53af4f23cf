// Command perfbench runs the sharded-persistence write-mix sweep
// (closed-loop browse:checkout ≈ 70:30 at 1/2/4 shards), writes
// BENCH_PR8.json, and -write-gate enforces the scaling and correctness
// gate (4-vs-1-shard checkout speedup, tail bound, stored == acked).
//
// Usage:
//
//	go run ./cmd/perfbench -quick -write-out bench_write.json -write-gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/perfbench"
)

func main() {
	quick := flag.Bool("quick", false, "shorten the measured runs (CI mode)")
	out := flag.String("write-out", "BENCH_PR8.json", "where to write the report")
	gate := flag.Bool("write-gate", false, "exit non-zero if the run misses the scaling floor or write correctness")
	flag.Parse()

	rep, err := perfbench.RunWriteMix(perfbench.Options{Quick: *quick, Log: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Print(perfbench.WriteSummary(rep))
	fmt.Println("report:", *out)

	violations := perfbench.GateWrite(rep)
	if len(violations) == 0 {
		fmt.Println("write gate: PASS (scaling floor met, every acked checkout stored exactly once)")
		return
	}
	fmt.Fprintln(os.Stderr, "write gate: FAIL")
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "  -", v)
	}
	if *gate {
		os.Exit(2)
	}
}
