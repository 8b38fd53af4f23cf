package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables the binary emits from must say the same.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the binary's default is %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := bf.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the binary %q / %q", i, got.Name, got.Why, wl.name, wl.why)
		}
		if !nameRE.MatchString(wl.name) || len(wl.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", wl.name, len(wl.why))
		}
	}

	check := func(kind string, listed []benchMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the binary", len(listed), kind, len(defs))
		}
		for i, def := range defs {
			got := listed[i]
			if got.Name != def.name || got.Unit != def.unit || got.Better != def.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the binary %+v", kind, i, got, def)
			}
			if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) {
				t.Errorf("%s metric %q with unit %q breaks the name grammar", kind, def.name, def.unit)
			}
			if def.better != "lower" && def.better != "higher" {
				t.Errorf("%s metric %q is better %q", kind, def.name, def.better)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != def.bound || def.bound <= 0 || def.bound > 0.25):
				t.Errorf("%s metric %q: bound %v in BENCHMARK.json, %v in the binary", kind, def.name, got.Bound, def.bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s metric %q has a bound", kind, def.name)
			}
		}
	}
	check("end-to-end", bf.EndToEnd, endToEnd, true)
	check("per-layer", bf.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}

	seen := map[string]bool{}
	largest := 0.0
	for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[def.name] {
			t.Errorf("metric name %q is used twice", def.name)
		}
		seen[def.name] = true
		largest = max(largest, def.bound)
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" || endToEnd[0].bound != largest {
		t.Errorf("setup_s must be a lower-is-better time in s with the largest bound, have %+v", endToEnd[0])
	}
}

// The result line carries exactly the listed metrics of the run's kind.
func TestContractLineCarriesExactlyTheListedMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		r := &runResult{Traced: traced, Correct: true, Attempted: 7, Metrics: map[string]sample{
			failShare.name: {0, "ratio", 7}, "not.listed": {1, "count", 1},
		}}
		for _, def := range defs {
			r.Metrics[def.name] = sample{1.5, def.unit, 3}
		}
		line, err := contractLine(r)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  *string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != len(defs) {
			t.Fatalf("traced=%v: result line %s", traced, line)
		}
		for _, def := range defs {
			if m, ok := got.Metrics[def.name]; !ok || m.Value == nil || m.Unit == nil || *m.Unit != def.unit {
				t.Errorf("traced=%v: metric %q missing or malformed in %s", traced, def.name, line)
			}
		}
	}
}
