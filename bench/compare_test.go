package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgeAppliesTheBound(t *testing.T) {
	lower := metricDef{"hi_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"sat_pages_per_s", "pages/s", "higher", 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	for _, c := range []struct {
		name   string
		def    metricDef
		a, b   []float64
		want   string
		change float64
	}{
		{"within bound", lower, steady(10), steady(10.5), "ok", 0.05},
		{"better", lower, steady(10), steady(5), "ok", -0.5},
		{"worse than bound", lower, steady(10), steady(11.5), "regression", 0.15},
		{"higher is better, lower value", higher, steady(500), steady(440), "regression", -0.12},
		{"higher is better, higher value", higher, steady(500), steady(600), "ok", 0.2},
		{"own spread above bound", lower, []float64{8, 10, 12}, steady(10), "unresolved", 0},
		{"too noisy to call a regression either", lower, []float64{8, 10, 12}, steady(13), "unresolved", 0.3},
	} {
		j := judge(c.def, c.a, c.b)
		if j.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, j.verdict, c.want)
		}
		if d := j.change - c.change; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: change %v, want %v", c.name, j.change, c.change)
		}
	}
}

func TestFailShareIsBoundedInAbsoluteTerms(t *testing.T) {
	zero := []float64{0, 0, 0}
	if j := judge(failShare, zero, zero); j.verdict != "ok" {
		t.Errorf("0 → 0: %q, want ok", j.verdict)
	}
	if j := judge(failShare, zero, []float64{0.0005, 0.0005, 0.0005}); j.verdict != "ok" {
		t.Errorf("0 → 0.0005: %q, want ok", j.verdict)
	}
	if j := judge(failShare, zero, []float64{0.002, 0.002, 0.002}); j.verdict != "regression" {
		t.Errorf("0 → 0.002: %q, want regression", j.verdict)
	}
}

func TestCompareReportsEveryPairAndRegressions(t *testing.T) {
	file := func(hiP50 float64) *resultsFile {
		rf := &resultsFile{}
		for i := 0; i < 3; i++ {
			rf.Runs = append(rf.Runs, runResult{Workload: "browse", Metrics: map[string]sample{
				"hi_p50_ms":       {hiP50 + float64(i)*0.01, "ms", 100},
				"sat_pages_per_s": {500 + float64(i), "pages/s", 100},
			}})
		}
		// A traced run's numbers never enter a comparison.
		rf.Runs = append(rf.Runs, runResult{Workload: "browse", Traced: true, Metrics: map[string]sample{"hi_p50_ms": {999, "ms", 1}}})
		return rf
	}
	var out bytes.Buffer
	if compare(&out, file(6), file(6.1)) {
		t.Errorf("a 1.7 %% change was called a regression:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 2 {
		t.Errorf("%d lines for two metrics of one workload:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "of base 6.01") {
		t.Errorf("the ratio is printed without its base:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, file(6), file(7)) {
		t.Errorf("a 17 %% slowdown passed a 10 %% bound:\n%s", out.String())
	}
}
