package sim

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// ServiceStats summarizes one service's behaviour over the measurement
// window, aggregated across its replicas.
type ServiceStats struct {
	Service Service
	// Replicas is the instance count.
	Replicas int
	// BusyCores is mean CPU consumption in core-equivalents
	// (busy CPU-seconds per wall second).
	BusyCores float64
	// BusyShare is this service's fraction of all busy CPU time.
	BusyShare float64
	// Served counts handler executions.
	Served int64
	// MeanExecMs is mean on-CPU time per handler execution.
	MeanExecMs float64
}

// Result is one run's measurements.
type Result struct {
	// Throughput is completed user requests per second.
	Throughput float64
	// SessionsPerSec is completed user sessions per second.
	SessionsPerSec float64
	// Latency summarizes end-to-end request latency.
	Latency metrics.Snapshot
	// PerRequest breaks latency down by request type.
	PerRequest map[workload.Request]metrics.Snapshot
	// Services breaks CPU use down by service.
	Services []ServiceStats
	// MachineUtil is mean logical-CPU utilization.
	MachineUtil float64
	// BusyCores is total mean CPU consumption in core-equivalents.
	BusyCores float64
	// Histogram is the raw end-to-end latency distribution.
	Histogram *metrics.Histogram
}

// collect assembles the Result after the measurement window closes.
func (e *Engine) collect() Result {
	res := Result{
		Throughput:     e.tput.PerSecond(),
		SessionsPerSec: e.sessions.PerSecond(),
		Latency:        e.histAll.Snapshot(),
		PerRequest:     map[workload.Request]metrics.Snapshot{},
		MachineUtil:    e.proc.Utilization(),
		Histogram:      &e.histAll,
	}
	for r := range e.histByReq {
		if e.histByReq[r].Count() > 0 {
			res.PerRequest[workload.Request(r)] = e.histByReq[r].Snapshot()
		}
	}
	measureSec := e.cfg.Measure.Seconds()
	var totalBusy float64
	agg := map[Service]*ServiceStats{}
	for _, inst := range e.instances {
		st, ok := agg[inst.spec.Service]
		if !ok {
			st = &ServiceStats{Service: inst.spec.Service}
			agg[inst.spec.Service] = st
		}
		st.Replicas++
		st.BusyCores += float64(inst.busyNS) / 1e9 / measureSec
		st.Served += inst.served
		totalBusy += float64(inst.busyNS) / 1e9 / measureSec
	}
	for _, st := range agg {
		if st.Served > 0 {
			st.MeanExecMs = st.BusyCores * measureSec * 1e3 / float64(st.Served)
		}
	}
	res.BusyCores = totalBusy
	for _, s := range AllServices() {
		st := agg[s]
		if totalBusy > 0 {
			st.BusyShare = st.BusyCores / totalBusy
		}
		res.Services = append(res.Services, *st)
	}
	sort.Slice(res.Services, func(i, j int) bool { return res.Services[i].Service < res.Services[j].Service })
	return res
}

// ServiceStat returns the stats row for one service.
func (r Result) ServiceStat(s Service) ServiceStats {
	for _, st := range r.Services {
		if st.Service == s {
			return st
		}
	}
	return ServiceStats{Service: s}
}

// Run builds an Engine for cfg and runs it — the package's main entry
// point.
func Run(cfg Config) (Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run(), nil
}
