package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/microarch"
	"repro/internal/sim"
)

// NamedTable pairs an experiment id with its rendered table.
type NamedTable struct {
	ID    string
	Table metrics.Table
}

// Results is one run of every experiment: the rendered tables in order,
// and the series each was drawn from.
type Results struct {
	Tables      []NamedTable
	Scale       []ScalePoint                   // E2
	Util        sim.Result                     // E3
	Classes     map[sim.Service]core.Character // E4
	Replication []ReplicationPoint             // E5
	SMT         SMTResult                      // E6
	Headline    E7Outcome                      // E7
	Latency     E8Outcome                      // E8
	Microarch   []microarch.Row                // E9
	Load        []LoadPoint                    // E11
	NPS         []NPSResult                    // E12
}

// Run runs every experiment in order. On an error it returns the results
// of the experiments that ran before it.
func Run(opt Options) (Results, error) {
	var r Results
	var t metrics.Table
	steps := []struct {
		id  string
		run func() error
	}{
		{"E1", func() error { t = E1ServiceInventory(opt); return nil }},
		{"E10", func() error { t = E10Topology(); return nil }},
		{"E2", func() (err error) { t, r.Scale, err = E2ScaleUpCurve(opt); return err }},
		{"E3", func() (err error) { t, r.Util, err = E3ServiceUtilization(opt); return err }},
		{"E4", func() (err error) { t, r.Classes, err = E4PerServiceScaling(opt); return err }},
		{"E5", func() (err error) { t, r.Replication, err = E5Replication(opt); return err }},
		{"E6", func() (err error) { t, r.SMT, err = E6SMT(opt); return err }},
		{"E7", func() (err error) { t, r.Headline, err = E7PinningPolicies(opt); return err }},
		{"E8", func() (err error) { t, r.Latency, err = E8LatencyDistribution(opt); return err }},
		{"E9", func() error { t, r.Microarch = E9Microarch(opt); return nil }},
		{"E11", func() (err error) { t, r.Load, err = E11LoadLatency(opt); return err }},
		{"E12", func() (err error) { t, r.NPS, err = E12NPSSensitivity(opt); return err }},
	}
	for _, st := range steps {
		if err := st.run(); err != nil {
			return r, fmt.Errorf("%s: %w", st.id, err)
		}
		r.Tables = append(r.Tables, NamedTable{ID: st.id, Table: t})
	}
	return r, nil
}

// Collect runs every experiment in order and returns the tables plus the
// E7 headline outcome.
func Collect(opt Options) ([]NamedTable, E7Outcome, error) {
	r, err := Run(opt)
	return r.Tables, r.Headline, err
}

// RunAll executes every experiment in order, streaming rendered tables to
// w. It returns the E7 headline outcome for EXPERIMENTS.md.
func RunAll(w io.Writer, opt Options) (E7Outcome, error) {
	r, err := Run(opt)
	return r.Headline, r.write(w, err)
}

// write renders r to w as RunAll does: every table, then, when the run
// ended without err, the E7 headline against the paper's claim.
func (r Results) write(w io.Writer, err error) error {
	for _, nt := range r.Tables {
		fmt.Fprintln(w, nt.Table.String())
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Headline (E7, optimized vs tuned): throughput %+.1f %%, p99 latency %+.1f %%, p50 latency %+.1f %%\n",
		r.Headline.ThroughputGain*100, -r.Headline.P99Reduction*100, -r.Headline.P50Reduction*100)
	fmt.Fprintln(w, "Paper claim: +22 % throughput, −18 % latency over the performance-tuned baseline.")
	return nil
}
