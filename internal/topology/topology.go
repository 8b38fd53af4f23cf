// Package topology models the processor topology of a multi-socket x86
// server: sockets contain NUMA nodes, NUMA nodes contain core complex dies
// (CCDs), CCDs contain core complexes (CCXs) that share a slice of L3
// cache, CCXs contain cores, and cores expose one or two SMT hardware
// threads (logical CPUs).
//
// The model mirrors the AMD EPYC "Rome" generation studied in the paper —
// 64 cores / 128 logical CPUs per socket, 4-core CCXs with a private 16 MiB
// L3 slice — but is fully parameterized so other shapes (including flat
// Intel-like monolithic L3 parts) can be described.
package topology

import (
	"fmt"
	"strings"
)

// Level names a topological containment level, ordered from tightest to
// loosest sharing.
type Level int

// Containment levels, tightest first.
const (
	LevelThread  Level = iota // same logical CPU
	LevelCore                 // SMT siblings
	LevelCCX                  // shared L3 slice
	LevelCCD                  // same die
	LevelNUMA                 // same memory node
	LevelSocket               // same package
	LevelMachine              // different sockets
)

var levelNames = [...]string{"thread", "core", "ccx", "ccd", "numa", "socket", "machine"}

func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return fmt.Sprintf("level(%d)", int(l))
	}
	return levelNames[l]
}

// CPU describes one logical CPU (hardware thread).
type CPU struct {
	ID     int // global logical CPU id, dense from 0
	Core   int // global core id
	CCX    int // global CCX id
	CCD    int // global CCD id
	NUMA   int // global NUMA node id
	Socket int // socket id
}

// Config parameterizes a machine build.
type Config struct {
	Sockets        int
	CCDsPerSocket  int
	CCXsPerCCD     int
	CoresPerCCX    int
	ThreadsPerCore int
	// NUMAPerSocket controls the NPS BIOS setting: 1 (NPS1) puts a whole
	// socket in one memory node; 4 (NPS4) splits it into quadrants.
	NUMAPerSocket int
	// L3PerCCX is the size in bytes of each CCX's L3 slice.
	L3PerCCX int64
	// BaseGHz and BoostGHz bound the core clock; the boost model in simcpu
	// interpolates between them based on socket activity.
	BaseGHz  float64
	BoostGHz float64
	// Name labels the preset for reports.
	Name string
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Sockets <= 0:
		return fmt.Errorf("topology: Sockets = %d, must be positive", c.Sockets)
	case c.CCDsPerSocket <= 0:
		return fmt.Errorf("topology: CCDsPerSocket = %d, must be positive", c.CCDsPerSocket)
	case c.CCXsPerCCD <= 0:
		return fmt.Errorf("topology: CCXsPerCCD = %d, must be positive", c.CCXsPerCCD)
	case c.CoresPerCCX <= 0:
		return fmt.Errorf("topology: CoresPerCCX = %d, must be positive", c.CoresPerCCX)
	case c.ThreadsPerCore < 1 || c.ThreadsPerCore > 2:
		return fmt.Errorf("topology: ThreadsPerCore = %d, must be 1 or 2", c.ThreadsPerCore)
	case c.NUMAPerSocket <= 0:
		return fmt.Errorf("topology: NUMAPerSocket = %d, must be positive", c.NUMAPerSocket)
	case c.CCDsPerSocket%c.NUMAPerSocket != 0:
		return fmt.Errorf("topology: CCDsPerSocket (%d) must divide evenly into NUMAPerSocket (%d) nodes",
			c.CCDsPerSocket, c.NUMAPerSocket)
	case c.L3PerCCX <= 0:
		return fmt.Errorf("topology: L3PerCCX = %d, must be positive", c.L3PerCCX)
	case c.BaseGHz <= 0 || c.BoostGHz < c.BaseGHz:
		return fmt.Errorf("topology: clocks Base=%.2f Boost=%.2f invalid", c.BaseGHz, c.BoostGHz)
	}
	return nil
}

// Machine is an immutable topology instance. Build one with New.
type Machine struct {
	cfg  Config
	cpus []CPU
	// coreCPUs[core] lists the logical CPU ids of the core's SMT threads.
	coreCPUs [][]int
	// ccxCores[ccx] lists the global core ids in the CCX, and so on up.
	ccxCores   [][]int
	ccdCCXs    [][]int
	numaCCDs   [][]int
	socketNUMA [][]int
	// numaDistance[a][b] follows the ACPI SLIT convention: 10 = local.
	numaDistance [][]int
}

// New builds a Machine from the configuration. Logical CPU ids follow the
// Linux convention for SMT systems: ids [0, nCores) are thread 0 of each
// core in topological order, ids [nCores, 2*nCores) are their SMT siblings.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg}
	nCores := cfg.Sockets * cfg.CCDsPerSocket * cfg.CCXsPerCCD * cfg.CoresPerCCX
	nCPUs := nCores * cfg.ThreadsPerCore
	m.cpus = make([]CPU, nCPUs)
	m.coreCPUs = make([][]int, nCores)

	ccdsPerNUMA := cfg.CCDsPerSocket / cfg.NUMAPerSocket
	core := 0
	for s := 0; s < cfg.Sockets; s++ {
		for d := 0; d < cfg.CCDsPerSocket; d++ {
			ccd := s*cfg.CCDsPerSocket + d
			numa := s*cfg.NUMAPerSocket + d/ccdsPerNUMA
			for x := 0; x < cfg.CCXsPerCCD; x++ {
				ccx := ccd*cfg.CCXsPerCCD + x
				for c := 0; c < cfg.CoresPerCCX; c++ {
					for t := 0; t < cfg.ThreadsPerCore; t++ {
						id := core + t*nCores
						m.cpus[id] = CPU{
							ID: id, Core: core,
							CCX: ccx, CCD: ccd, NUMA: numa, Socket: s,
						}
						m.coreCPUs[core] = append(m.coreCPUs[core], id)
					}
					core++
				}
			}
		}
	}

	// Containment lists.
	m.ccxCores = groupBy(nCores, func(c int) int { return m.cpus[m.coreCPUs[c][0]].CCX })
	nCCX := cfg.Sockets * cfg.CCDsPerSocket * cfg.CCXsPerCCD
	m.ccdCCXs = groupBy(nCCX, func(x int) int { return x / cfg.CCXsPerCCD })
	nCCD := cfg.Sockets * cfg.CCDsPerSocket
	m.numaCCDs = groupBy(nCCD, func(d int) int {
		s := d / cfg.CCDsPerSocket
		return s*cfg.NUMAPerSocket + (d%cfg.CCDsPerSocket)/ccdsPerNUMA
	})
	nNUMA := cfg.Sockets * cfg.NUMAPerSocket
	m.socketNUMA = groupBy(nNUMA, func(n int) int { return n / cfg.NUMAPerSocket })

	// SLIT-style distances: local 10, same socket 12, cross socket 32.
	m.numaDistance = make([][]int, nNUMA)
	for a := 0; a < nNUMA; a++ {
		m.numaDistance[a] = make([]int, nNUMA)
		for b := 0; b < nNUMA; b++ {
			switch {
			case a == b:
				m.numaDistance[a][b] = 10
			case a/cfg.NUMAPerSocket == b/cfg.NUMAPerSocket:
				m.numaDistance[a][b] = 12
			default:
				m.numaDistance[a][b] = 32
			}
		}
	}
	return m, nil
}

// MustNew is New, panicking on error. Intended for presets and tests.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// groupBy builds child-lists: for n children, parentOf maps child id to
// parent id; result[parent] lists children in order.
func groupBy(n int, parentOf func(int) int) [][]int {
	var out [][]int
	for c := 0; c < n; c++ {
		p := parentOf(c)
		for len(out) <= p {
			out = append(out, nil)
		}
		out[p] = append(out[p], c)
	}
	return out
}

// Config returns the build configuration.
func (m *Machine) Config() Config { return m.cfg }

// Name returns the preset label.
func (m *Machine) Name() string { return m.cfg.Name }

// NumCPUs returns the count of logical CPUs.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// NumCores returns the count of physical cores.
func (m *Machine) NumCores() int { return len(m.coreCPUs) }

// NumCCXs returns the count of core complexes (L3 domains).
func (m *Machine) NumCCXs() int { return len(m.ccxCores) }

// NumCCDs returns the count of core complex dies.
func (m *Machine) NumCCDs() int { return len(m.ccdCCXs) }

// NumNUMA returns the count of NUMA memory nodes.
func (m *Machine) NumNUMA() int { return len(m.numaCCDs) }

// NumSockets returns the socket count.
func (m *Machine) NumSockets() int { return m.cfg.Sockets }

// CPU returns the descriptor for logical CPU id.
func (m *Machine) CPU(id int) CPU { return m.cpus[id] }

// ValidCPU reports whether id names a logical CPU of this machine.
func (m *Machine) ValidCPU(id int) bool { return id >= 0 && id < len(m.cpus) }

// CoreSiblings returns the logical CPU ids sharing the given core.
func (m *Machine) CoreSiblings(core int) []int { return m.coreCPUs[core] }

// CPUsOfCCX returns the logical CPUs of a CCX as a set.
func (m *Machine) CPUsOfCCX(ccx int) CPUSet {
	var s CPUSet
	for _, core := range m.ccxCores[ccx] {
		for _, id := range m.coreCPUs[core] {
			s.Add(id)
		}
	}
	return s
}

// CPUsOfNUMA returns the logical CPUs of a NUMA node as a set.
func (m *Machine) CPUsOfNUMA(numa int) CPUSet {
	var s CPUSet
	for _, cpu := range m.cpus {
		if cpu.NUMA == numa {
			s.Add(cpu.ID)
		}
	}
	return s
}

// CPUsOfSocket returns the logical CPUs of a socket as a set.
func (m *Machine) CPUsOfSocket(socket int) CPUSet {
	var s CPUSet
	for _, cpu := range m.cpus {
		if cpu.Socket == socket {
			s.Add(cpu.ID)
		}
	}
	return s
}

// Relation classifies how tightly two logical CPUs are coupled: the
// tightest level at which they share a domain.
func (m *Machine) Relation(a, b int) Level {
	ca, cb := m.cpus[a], m.cpus[b]
	switch {
	case a == b:
		return LevelThread
	case ca.Core == cb.Core:
		return LevelCore
	case ca.CCX == cb.CCX:
		return LevelCCX
	case ca.CCD == cb.CCD:
		return LevelCCD
	case ca.NUMA == cb.NUMA:
		return LevelNUMA
	case ca.Socket == cb.Socket:
		return LevelSocket
	default:
		return LevelMachine
	}
}

// NUMADistance returns the SLIT distance between two NUMA nodes
// (10 = local).
func (m *Machine) NUMADistance(a, b int) int { return m.numaDistance[a][b] }

// L3Bytes returns the size of one CCX's L3 slice.
func (m *Machine) L3Bytes() int64 { return m.cfg.L3PerCCX }

// String renders a compact one-line summary.
func (m *Machine) String() string {
	return fmt.Sprintf("%s: %d sockets × %d cores × %d threads = %d logical CPUs, %d CCXs (%d MiB L3 each), %d NUMA nodes",
		m.cfg.Name, m.cfg.Sockets, m.NumCores()/m.cfg.Sockets, m.cfg.ThreadsPerCore,
		m.NumCPUs(), m.NumCCXs(), m.cfg.L3PerCCX>>20, m.NumNUMA())
}

// Describe renders a multi-line tree of the topology, truncating long runs.
func (m *Machine) Describe() string {
	var b strings.Builder
	fmt.Fprintln(&b, m.String())
	for s := 0; s < m.NumSockets(); s++ {
		fmt.Fprintf(&b, "socket %d\n", s)
		for _, numa := range m.socketNUMA[s] {
			fmt.Fprintf(&b, "  numa %d\n", numa)
			for _, ccd := range m.numaCCDs[numa] {
				fmt.Fprintf(&b, "    ccd %d:", ccd)
				for _, ccx := range m.ccdCCXs[ccd] {
					fmt.Fprintf(&b, " ccx%d%v", ccx, m.ccxCores[ccx])
				}
				fmt.Fprintln(&b)
			}
		}
	}
	return b.String()
}
