// Package memmodel computes effective-CPI multipliers for simulated work
// from cache and NUMA state.
//
// Each deployed service instance registers a memory Region: a working-set
// size, a home NUMA node (where its heap pages live), and a CPU affinity.
// The model derives, per CCX, how much working set is resident, applies a
// fair-share occupancy rule to get each region's L3 hit fraction, and folds
// the NUMA-distance-dependent miss penalty into a CPI multiplier:
//
//	cpi = 1 + memWeight × missRatio × (memLatency / localLatency)
//
// memWeight is the service's memory sensitivity: the fraction of its
// baseline execution that stalls on memory when every access misses local
// DRAM. A region that fits in its L3 share and runs next to its memory
// pays almost nothing; an oversubscribed region running cross-socket can
// more than double its CPI — the two effects CCX-aware and NUMA-aware
// placement remove.
package memmodel

import (
	"fmt"

	"repro/internal/topology"
)

// Params tune the cache/NUMA behaviour model.
type Params struct {
	// BaseMissRatio is the L3 miss ratio of a working set that fully fits
	// (compulsory + coherence misses).
	BaseMissRatio float64
	// MaxMissRatio is the asymptotic miss ratio of a hopelessly
	// oversubscribed working set.
	MaxMissRatio float64
	// LocalLatencyNs is DRAM latency at SLIT distance 10. Latency scales
	// proportionally with distance (distance 32 → 3.2× local).
	LocalLatencyNs float64
}

// DefaultParams returns calibrated defaults (Rome-class DRAM ≈ 105 ns
// local).
func DefaultParams() Params {
	return Params{BaseMissRatio: 0.05, MaxMissRatio: 0.85, LocalLatencyNs: 105}
}

// Validate reports the first problem with the parameters.
func (p Params) Validate() error {
	switch {
	case p.BaseMissRatio < 0 || p.BaseMissRatio > 1:
		return fmt.Errorf("memmodel: BaseMissRatio %v outside [0,1]", p.BaseMissRatio)
	case p.MaxMissRatio < p.BaseMissRatio || p.MaxMissRatio > 1:
		return fmt.Errorf("memmodel: MaxMissRatio %v outside [BaseMissRatio,1]", p.MaxMissRatio)
	case p.LocalLatencyNs <= 0:
		return fmt.Errorf("memmodel: LocalLatencyNs %v must be positive", p.LocalLatencyNs)
	}
	return nil
}

// Interleaved, used as a Region home, means the heap is interleaved across
// all NUMA nodes (numactl --interleave=all): accesses pay the machine's
// mean distance.
const Interleaved = -1

// Region is one instance's registered memory footprint.
type Region struct {
	WSBytes  int64
	Home     int // NUMA node holding the heap, or Interleaved
	ccxShare map[int]float64
}

// Model tracks all regions on one machine.
type Model struct {
	mach    *topology.Machine
	params  Params
	regions []*Region
	// occupancy[ccx] is total resident working-set bytes.
	occupancy []float64
	dirty     bool
}

// New returns an empty model for the machine.
func New(mach *topology.Machine, params Params) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		mach:      mach,
		params:    params,
		occupancy: make([]float64, mach.NumCCXs()),
	}, nil
}

// AddRegion registers a working set of wsBytes homed on NUMA node home,
// resident on the CCXs covered by affinity. An empty affinity means the
// whole machine. Returns the region handle used for CPI queries.
func (m *Model) AddRegion(wsBytes int64, home int, affinity topology.CPUSet) (*Region, error) {
	if wsBytes < 0 {
		return nil, fmt.Errorf("memmodel: negative working set %d", wsBytes)
	}
	if home != Interleaved && (home < 0 || home >= m.mach.NumNUMA()) {
		return nil, fmt.Errorf("memmodel: home node %d outside [0,%d)", home, m.mach.NumNUMA())
	}
	r := &Region{WSBytes: wsBytes, Home: home}
	r.ccxShare = spanShares(m.mach, affinity)
	m.regions = append(m.regions, r)
	m.dirty = true
	return r, nil
}

// spanShares maps each CCX covered by the affinity to the fraction of the
// region's working set resident there (proportional to CPUs in the set).
func spanShares(mach *topology.Machine, affinity topology.CPUSet) map[int]float64 {
	counts := map[int]int{}
	total := 0
	add := func(id int) {
		counts[mach.CPU(id).CCX]++
		total++
	}
	if affinity.Empty() {
		for id := 0; id < mach.NumCPUs(); id++ {
			add(id)
		}
	} else {
		affinity.ForEach(add)
	}
	shares := make(map[int]float64, len(counts))
	for ccx, n := range counts {
		shares[ccx] = float64(n) / float64(total)
	}
	return shares
}

// recompute rebuilds per-CCX occupancy.
func (m *Model) recompute() {
	for i := range m.occupancy {
		m.occupancy[i] = 0
	}
	for _, r := range m.regions {
		for ccx, share := range r.ccxShare {
			m.occupancy[ccx] += float64(r.WSBytes) * share
		}
	}
	m.dirty = false
}

// Occupancy returns the resident working-set bytes on a CCX.
func (m *Model) Occupancy(ccx int) float64 {
	if m.dirty {
		m.recompute()
	}
	return m.occupancy[ccx]
}

// MissRatio returns the region's L3 miss ratio when executing on the given
// CCX.
//
// The region competes for the CCX's L3 slice in proportion to the pressure
// it puts there (its working set weighted by how much of its CPU affinity
// lands on this CCX). Its hit fraction is then its fair share of the slice
// divided by its FULL working set — a thread accesses all of its data from
// wherever it runs, so spreading an instance thin across many CCXs leaves
// only a sliver of its data resident in any one of them. This is the
// cache-dilution effect that CCX-aware pinning removes.
func (m *Model) MissRatio(r *Region, ccx int) float64 {
	if m.dirty {
		m.recompute()
	}
	if r.WSBytes <= 0 {
		return m.params.BaseMissRatio
	}
	pressure := float64(r.WSBytes) * r.ccxShare[ccx]
	if pressure <= 0 {
		// Executing off its residency (migration): everything misses.
		return m.params.MaxMissRatio
	}
	l3 := float64(m.mach.L3Bytes())
	occ := m.occupancy[ccx]
	var share float64
	if occ > l3 {
		// Contended slice: capacity divides in proportion to pressure.
		share = l3 * pressure / occ
	} else {
		// Uncontended: the region keeps as much of its working set warm
		// as fits after the other residents' pressure.
		share = l3 - (occ - pressure)
		if ws := float64(r.WSBytes); share > ws {
			share = ws
		}
	}
	fit := share / float64(r.WSBytes)
	if fit > 1 {
		fit = 1
	}
	return m.params.BaseMissRatio + (m.params.MaxMissRatio-m.params.BaseMissRatio)*(1-fit)
}

// LatencyFactor returns memLatency/localLatency for an access from NUMA
// node from to the region's home node. Interleaved regions pay the mean
// distance to all nodes.
func (m *Model) LatencyFactor(r *Region, from int) float64 {
	if r.Home == Interleaved {
		sum := 0
		for n := 0; n < m.mach.NumNUMA(); n++ {
			sum += m.mach.NUMADistance(from, n)
		}
		return float64(sum) / float64(m.mach.NumNUMA()) / 10.0
	}
	return float64(m.mach.NUMADistance(from, r.Home)) / 10.0
}

// CPI returns the effective-CPI multiplier (≥1) for the region's work
// executing on the given logical CPU, weighted by the service's memory
// sensitivity memWeight ∈ [0, 1].
func (m *Model) CPI(r *Region, cpu int, memWeight float64) float64 {
	info := m.mach.CPU(cpu)
	miss := m.MissRatio(r, info.CCX)
	lat := m.LatencyFactor(r, info.NUMA)
	return 1 + memWeight*miss*lat
}
