// Package mva implements exact Mean Value Analysis for closed
// product-form queueing networks — the classical analytic model of a
// closed-loop multi-station system.
//
// It serves two purposes in this repository:
//
//  1. Validation: on configurations without the simulator's non-product-
//     form mechanisms (SMT, cache CPI, serialization locks), MVA's
//     predicted throughput and response time must match the discrete-event
//     simulator closely. The cross-check lives in the package tests.
//  2. Cross-validation: the crossval harness compares its throughput
//     curve (SolveRange) with the simulated and measured sweeps.
//
// The implementation is the standard exact single-class MVA recursion
// over N customers: for each station k,
//
//	R_k(n) = D_k × (1 + Q_k(n−1))   (queueing station)
//	R_k(n) = D_k                    (delay station / think time)
//	X(n)   = n / (Z + Σ R_k(n))
//	Q_k(n) = X(n) × R_k(n)
//
// extended with Seidmann's approximation for m-server stations: the
// station is modeled as a single queueing server of demand D/m in series
// with a pure delay of D(m−1)/m, which is exact at both asymptotes (no
// load and saturation).
package mva

import "fmt"

// Station is one service centre.
type Station struct {
	// Name labels the station in reports.
	Name string
	// Demand is the total service demand per job visit-weighted, in
	// seconds (D_k = V_k × S_k).
	Demand float64
	// Servers is the parallelism (1 = classic queueing station). For
	// m > 1 the load-dependent rate is approximated by the standard
	// m-server correction.
	Servers int
}

// Network is a closed single-class queueing network.
type Network struct {
	// ThinkTime is the delay-station demand Z in seconds.
	ThinkTime float64
	Stations  []Station
}

// Validate reports the first structural problem.
func (n Network) Validate() error {
	if n.ThinkTime < 0 {
		return fmt.Errorf("mva: negative think time %v", n.ThinkTime)
	}
	if len(n.Stations) == 0 {
		return fmt.Errorf("mva: no stations")
	}
	for _, s := range n.Stations {
		if s.Demand < 0 {
			return fmt.Errorf("mva: station %q has negative demand", s.Name)
		}
		if s.Servers < 1 {
			return fmt.Errorf("mva: station %q has %d servers", s.Name, s.Servers)
		}
	}
	return nil
}

// Result is the network's solution at a population.
type Result struct {
	Population int
	// Throughput is jobs/second.
	Throughput float64
	// ResponseTime is Σ R_k in seconds (excluding think time).
	ResponseTime float64
	// StationQueue is mean customers at each station, indexed as
	// Network.Stations.
	StationQueue []float64
	// Utilization is per-station utilization (of all servers).
	Utilization []float64
	// Bottleneck is the index of the highest-utilization station.
	Bottleneck int
}

// SolveRange runs the recursion once and returns the solution at every
// population 1..maxN (index i holds population i+1). The recursion
// already visits each intermediate population, so reading off the whole
// throughput curve — what the cross-validation harness compares against
// measured and simulated sweeps — costs the same as solving at maxN.
func SolveRange(net Network, maxN int) ([]Result, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if maxN < 1 {
		return nil, fmt.Errorf("mva: population %d must be ≥ 1", maxN)
	}
	k := len(net.Stations)
	// Per Seidmann, the queueing part of each station has demand D/m; the
	// remaining D(m−1)/m is a fixed delay.
	queue := make([]float64, k) // customers at the queueing part
	resp := make([]float64, k)  // full per-station response times
	out := make([]Result, 0, maxN)
	for n := 1; n <= maxN; n++ {
		total := net.ThinkTime
		for i, st := range net.Stations {
			resp[i] = 0
			if st.Demand == 0 {
				continue
			}
			m := float64(st.Servers)
			dq := st.Demand / m
			resp[i] = dq*(1+queue[i]) + st.Demand*(m-1)/m
			total += resp[i]
		}
		x := float64(n) / total
		for i, st := range net.Stations {
			if st.Demand == 0 {
				continue
			}
			m := float64(st.Servers)
			dq := st.Demand / m
			// Only the queueing part's population feeds the recursion.
			queue[i] = x * dq * (1 + queue[i])
		}
		res := Result{
			Population:   n,
			Throughput:   x,
			StationQueue: make([]float64, k),
			Utilization:  make([]float64, k),
		}
		for i, st := range net.Stations {
			res.ResponseTime += resp[i]
			res.StationQueue[i] = x * resp[i]
			res.Utilization[i] = x * st.Demand / float64(st.Servers)
			if res.Utilization[i] > res.Utilization[res.Bottleneck] {
				res.Bottleneck = i
			}
		}
		out = append(out, res)
	}
	return out, nil
}
