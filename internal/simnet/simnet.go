// Package simnet models the cost of service-to-service RPC on a single
// server: loopback-network latency plus the per-message CPU tax of the
// kernel network stack and (de)serialization.
//
// Both components depend on where the endpoints run. Two services pinned
// to the same CCX exchange messages through a shared L3; endpoints on
// different sockets pay cross-socket interconnect latency and cold-cache
// receive processing. These placement-dependent deltas are precisely what
// the paper's topology-aware configurations harvest.
package simnet

import (
	"fmt"

	"repro/internal/desim"
	"repro/internal/topology"
)

// Params give one-way message costs by endpoint relation.
type Params struct {
	// Latency[level] is the one-way wire+wakeup latency between endpoints
	// whose tightest shared domain is level.
	Latency [topology.LevelMachine + 1]desim.Duration
	// SendCPU and RecvCPU are the per-message CPU demands added to the
	// sending and receiving side (syscall + stack + serialization).
	SendCPU desim.Duration
	RecvCPU desim.Duration
	// PerKBCPU is added to both sides per KiB of payload.
	PerKBCPU desim.Duration
	// CrossSocketCPUFactor inflates RecvCPU when the message crossed a
	// socket boundary (cold cache lines on receive).
	CrossSocketCPUFactor float64
}

// DefaultParams returns calibrated loopback-TCP-like defaults.
func DefaultParams() Params {
	var p Params
	p.Latency[topology.LevelThread] = 2 * desim.Microsecond
	p.Latency[topology.LevelCore] = 3 * desim.Microsecond
	p.Latency[topology.LevelCCX] = 5 * desim.Microsecond
	p.Latency[topology.LevelCCD] = 8 * desim.Microsecond
	p.Latency[topology.LevelNUMA] = 12 * desim.Microsecond
	p.Latency[topology.LevelSocket] = 15 * desim.Microsecond
	p.Latency[topology.LevelMachine] = 30 * desim.Microsecond
	p.SendCPU = 4 * desim.Microsecond
	p.RecvCPU = 6 * desim.Microsecond
	p.PerKBCPU = 500 * desim.Nanosecond
	p.CrossSocketCPUFactor = 1.4
	return p
}

// Validate reports the first problem with the parameters.
func (p Params) Validate() error {
	prev := desim.Duration(0)
	for lvl, lat := range p.Latency {
		if lat < 0 {
			return fmt.Errorf("simnet: negative latency at level %v", topology.Level(lvl))
		}
		if lat < prev {
			return fmt.Errorf("simnet: latency must be non-decreasing with distance; level %v (%v) < previous (%v)",
				topology.Level(lvl), lat, prev)
		}
		prev = lat
	}
	if p.SendCPU < 0 || p.RecvCPU < 0 || p.PerKBCPU < 0 {
		return fmt.Errorf("simnet: negative CPU cost")
	}
	if p.CrossSocketCPUFactor < 1 {
		return fmt.Errorf("simnet: CrossSocketCPUFactor %v must be ≥ 1", p.CrossSocketCPUFactor)
	}
	return nil
}

// Fabric answers RPC cost queries on one machine, caching set-average
// latencies (the hot query: "a caller on CPU c sends to an instance whose
// worker could be anywhere in set S").
type Fabric struct {
	mach   *topology.Machine
	params Params
	// avgCache[callerCCX][setKey] caches mean latency from any CPU of a
	// CCX to the members of a set.
	avgCache []map[string]desim.Duration
}

// NewFabric returns a fabric for the machine.
func NewFabric(mach *topology.Machine, params Params) (*Fabric, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{mach: mach, params: params}
	f.avgCache = make([]map[string]desim.Duration, mach.NumCCXs())
	for i := range f.avgCache {
		f.avgCache[i] = map[string]desim.Duration{}
	}
	return f, nil
}

// Params returns the fabric's cost parameters.
func (f *Fabric) Params() Params { return f.params }

// Latency returns the one-way latency between two specific CPUs.
func (f *Fabric) Latency(fromCPU, toCPU int) desim.Duration {
	return f.params.Latency[f.mach.Relation(fromCPU, toCPU)]
}

// AvgLatency returns the mean one-way latency from fromCPU to a uniformly
// random member of toSet — the expected cost of sending to an instance
// whose worker placement within its affinity is unknown. An empty set
// means the whole machine.
func (f *Fabric) AvgLatency(fromCPU int, toSet topology.CPUSet) desim.Duration {
	ccx := f.mach.CPU(fromCPU).CCX
	key := toSet.String()
	if v, ok := f.avgCache[ccx][key]; ok {
		return v
	}
	var sum desim.Duration
	n := 0
	add := func(id int) {
		sum += f.Latency(fromCPU, id)
		n++
	}
	if toSet.Empty() {
		for id := 0; id < f.mach.NumCPUs(); id++ {
			add(id)
		}
	} else {
		toSet.ForEach(add)
	}
	avg := sum / desim.Duration(n)
	f.avgCache[ccx][key] = avg
	return avg
}

// CPUCosts returns the sender-side and receiver-side CPU demands for a
// message of payloadBytes whose endpoints relate at the given level.
func (f *Fabric) CPUCosts(level topology.Level, payloadBytes int) (send, recv desim.Duration) {
	perKB := f.params.PerKBCPU * desim.Duration(payloadBytes/1024)
	send = f.params.SendCPU + perKB
	recv = f.params.RecvCPU + perKB
	if level >= topology.LevelMachine {
		recv = desim.Duration(float64(recv) * f.params.CrossSocketCPUFactor)
	}
	return send, recv
}
