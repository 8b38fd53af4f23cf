package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The test binary doubles as the child stack, as the bench binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-serve" {
		if err := serve(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "bench: serve:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// children lists the live (non-zombie) child processes of this process.
func children(t *testing.T) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited while we looked
		}
		s := string(data)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 2 || fields[0] == "Z" {
			continue
		}
		if ppid, _ := strconv.Atoi(fields[1]); ppid == os.Getpid() {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			out = append(out, pid)
		}
	}
	return out
}

// -quick on one workload: every end-to-end and per-layer name is present
// and finite, the correctness checks pass, and no stack outlives its run.
// Nothing here asserts a performance threshold.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the real stack twice")
	}
	out := filepath.Join(t.TempDir(), "results.json")
	for _, trace := range []string{"0", "1"} {
		if code := run([]string{"-quick", "-trace", trace, "-out", out}); code != 0 {
			t.Fatalf("bench -quick -trace %s exited %d", trace, code)
		}
	}
	rf, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Runs) != 2 || rf.Runs[0].Traced || !rf.Runs[1].Traced {
		t.Fatalf("results hold %d runs, want a timed and a traced one", len(rf.Runs))
	}
	if rf.Host.GoVersion == "" || rf.Host.NProc == 0 || rf.Host.Conns == 0 {
		t.Errorf("host fingerprint incomplete: %+v", rf.Host)
	}
	for i, defs := range [][]metricDef{timedMetrics(), perLayer} {
		r := rf.Runs[i]
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("run %d: correct=%v attempted=%d failed=%d notes=%v", i, r.Correct, r.Attempted, r.Failed, r.Notes)
		}
		for _, def := range defs {
			s, ok := r.Metrics[def.name]
			if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Unit != def.unit {
				t.Errorf("run %d: metric %s missing, not finite or in the wrong unit: %+v", i, def.name, s)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(out), "browse.trace.json")); err != nil {
		t.Errorf("the traced run left no span file: %v", err)
	}
	if left := children(t); len(left) > 0 {
		t.Errorf("child stacks %v outlived their runs", left)
	}
}

// A run that is cancelled half-way (what SIGINT does) still stops and
// reaps its child.
func TestCancelledRunReapsItsChild(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the real stack")
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(1500*time.Millisecond, cancel)
	if _, err := runTimed(ctx, findWorkload("catalog-read"), 1, quickSeconds, 1, 2); err == nil {
		t.Error("a cancelled run reported a result")
	}
	if left := children(t); len(left) > 0 {
		t.Errorf("child stacks %v outlived a cancelled run", left)
	}
}
