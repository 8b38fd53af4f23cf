package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint says where and how a results file was measured.
type fingerprint struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"goVersion"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpuModel"`
	Conns      int    `json:"conns"`
}

// resultsFile is bench/out/results.json: runs accumulate across
// invocations, so a set of repetitions is one file.
type resultsFile struct {
	Host fingerprint `json:"host"`
	Runs []runResult `json:"runs"`
}

func hostFingerprint(conns int) fingerprint {
	fp := fingerprint{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Conns:      conns,
	}
	// Outside a git work tree (the acceptance driver's checkout) the
	// commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fp
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResults adds runs to the results file at path, creating it with
// this host's fingerprint when it does not exist.
func appendResults(path string, conns int, runs []runResult) error {
	rf, err := readResults(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		rf = &resultsFile{Host: hostFingerprint(conns)}
	case err != nil:
		return err
	}
	rf.Runs = append(rf.Runs, runs...)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printRun writes one `workload metric value unit n` line per metric, in
// the order the metric tables define, then the run's notes.
func printRun(w io.Writer, r *runResult) {
	defs := timedMetrics()
	if r.Traced {
		defs = perLayer
	}
	for _, def := range defs {
		if s, ok := r.Metrics[def.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s %d\n", r.Workload, def.name, s.Value, s.Unit, s.N)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s: %s\n", r.Workload, n)
	}
}

// contractLine is the last line the acceptance driver reads: exactly the
// keys correct, attempted, failed and metrics, with every metric of the
// run's kind that BENCHMARK.json lists and no other.
func contractLine(r *runResult) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, def := range defs {
		if s, ok := r.Metrics[def.name]; ok {
			metrics[def.name] = value{s.Value, s.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}
