package main

import (
	"fmt"
	"io"
)

// compare prints, for every workload and end-to-end metric, how set B's
// median stands against set A's and against the metric's bound, and
// reports whether any metric regressed. A and B are results files holding
// several runs per workload. Each ratio is printed with its base (A's
// median). A metric whose own run-to-run spread in either set exceeds the
// bound can show neither "no change" nor a regression of the bound's size,
// and is reported as unresolved whatever the medians say.
func compare(w io.Writer, a, b *resultsFile) (regressed bool) {
	defs := timedMetrics()
	for _, wl := range workloads {
		for _, def := range defs {
			va, vb := values(a, wl.name, def.name), values(b, wl.name, def.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(def, va, vb)
			if v.verdict == "regression" {
				regressed = true
			}
			fmt.Fprintf(w, "%s %s A=%.6g B=%.6g %s change=%+.2f%% of base %.6g bound=%.1f%% spreadA=%.1f%% spreadB=%.1f%% nA=%d nB=%d %s\n",
				wl.name, def.name, v.a, v.b, def.unit, v.change*100, v.a, def.bound*100,
				v.spreadA*100, v.spreadB*100, len(va), len(vb), v.verdict)
		}
	}
	return regressed
}

// values collects one metric of one workload over a file's timed runs.
func values(rf *resultsFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if s, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, s.Value)
		}
	}
	return out
}

type judgement struct {
	a, b             float64 // medians
	change           float64 // (b − a) / a; for fail_share the absolute difference
	spreadA, spreadB float64
	verdict          string // "ok", "regression" or "unresolved"
}

// judge applies a metric's bound to two sets of values.
func judge(def metricDef, va, vb []float64) judgement {
	j := judgement{a: median(va), b: median(vb), spreadA: spread(va), spreadB: spread(vb), verdict: "ok"}
	worse := j.b - j.a
	if def.better == "higher" {
		worse = -worse
	}
	if def.name == failShare.name {
		// Bounded in absolute terms: its base is 0 on a healthy run.
		j.change = j.b - j.a
		q1a, q3a := quartiles(va)
		q1b, q3b := quartiles(vb)
		j.spreadA, j.spreadB = q3a-q1a, q3b-q1b
	} else if j.a != 0 {
		j.change = (j.b - j.a) / j.a
		worse /= j.a
	}
	switch {
	case j.spreadA > def.bound || j.spreadB > def.bound:
		j.verdict = "unresolved"
	case worse > def.bound:
		j.verdict = "regression"
	}
	return j
}
