package sim

import (
	"fmt"

	"repro/internal/desim"
	"repro/internal/memmodel"
	"repro/internal/simcpu"
	"repro/internal/topology"
)

// MicrobenchConfig drives a single service instance in isolation — the
// per-service scaling experiment (E4): a fixed closed-loop population of
// synthetic callers issues back-to-back handler executions against one
// instance pinned to a given number of cores.
type MicrobenchConfig struct {
	Machine *topology.Machine
	Service Service
	// Profile overrides the service profile (zero value means default).
	Profile *ServiceProfile
	// Demand is the median handler demand per operation.
	Demand desim.Duration
	// Cores allots the first N physical cores (both SMT threads).
	Cores int
	// Concurrency is the closed-loop caller population (0 → 2×CPUs).
	Concurrency int
	Seed        int64
	Warmup      desim.Duration
	Measure     desim.Duration
	CPU         simcpu.Params
	Mem         memmodel.Params
}

// MicrobenchResult reports an isolated-service scaling point.
type MicrobenchResult struct {
	Service     Service
	Cores       int
	Concurrency int
	// OpsPerSec is completed handler executions per second.
	OpsPerSec float64
}

// Microbench runs the isolated-service scaling measurement.
func Microbench(cfg MicrobenchConfig) (MicrobenchResult, error) {
	if cfg.Machine == nil {
		return MicrobenchResult{}, fmt.Errorf("sim: Microbench requires a machine")
	}
	if cfg.Cores <= 0 || cfg.Cores > cfg.Machine.NumCores() {
		return MicrobenchResult{}, fmt.Errorf("sim: Cores %d outside [1,%d]", cfg.Cores, cfg.Machine.NumCores())
	}
	if cfg.Demand <= 0 {
		return MicrobenchResult{}, fmt.Errorf("sim: Demand must be positive")
	}
	if cfg.Warmup < 0 || cfg.Measure <= 0 {
		return MicrobenchResult{}, fmt.Errorf("sim: warmup/measure invalid")
	}
	prof := DefaultProfiles()[cfg.Service]
	if cfg.Profile != nil {
		prof = *cfg.Profile
	}
	if cfg.CPU == (simcpu.Params{}) {
		cfg.CPU = simcpu.DefaultParams()
	}
	if cfg.Mem == (memmodel.Params{}) {
		cfg.Mem = memmodel.DefaultParams()
	}

	eng := desim.New()
	proc, err := simcpu.New(eng, cfg.Machine, cfg.CPU)
	if err != nil {
		return MicrobenchResult{}, err
	}
	mem, err := memmodel.New(cfg.Machine, cfg.Mem)
	if err != nil {
		return MicrobenchResult{}, err
	}

	// Affinity: the first Cores cores, both threads.
	var aff topology.CPUSet
	for core := 0; core < cfg.Cores; core++ {
		for _, id := range cfg.Machine.CoreSiblings(core) {
			aff.Add(id)
		}
	}
	home := cfg.Machine.CPU(aff.IDs()[0]).NUMA
	region, err := mem.AddRegion(prof.WSBytes, home, aff)
	if err != nil {
		return MicrobenchResult{}, err
	}

	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 2 * aff.Count()
	}
	rng := desim.NewRNGPool(cfg.Seed).Stream("microbench")

	var completed int64
	measuring := false
	var lock serialLock

	runSeg := func(work desim.Duration, onCPU int, priority bool, done func(cpu int)) {
		if work <= 0 {
			done(onCPU)
			return
		}
		seg := &simcpu.Segment{
			Work:     work,
			Priority: priority,
			Affinity: aff,
			CPI: func(cpu int) float64 {
				return mem.CPI(region, cpu, prof.MemWeight)
			},
			OnDone: done,
		}
		if onCPU >= 0 {
			proc.SubmitOn(seg, onCPU)
		} else {
			proc.Submit(seg)
		}
	}

	var issue func()
	issue = func() {
		demand := rng.LogNormal(cfg.Demand, prof.DemandSigma)
		serial := desim.Duration(float64(demand) * prof.SerialFrac)
		parallel := demand - serial
		finish := func() {
			if measuring {
				completed++
			}
			issue()
		}
		runSeg(parallel, -1, false, func(cpu int) {
			if serial <= 0 {
				finish()
				return
			}
			lock.acquire(cpu, func(cpu int) {
				runSeg(serial, cpu, true, func(cpu int) {
					lock.release(cpu)
					finish()
				})
			})
		})
	}
	for i := 0; i < conc; i++ {
		issue()
	}

	eng.RunUntil(desim.Time(cfg.Warmup))
	measuring = true
	eng.RunUntil(desim.Time(cfg.Warmup + cfg.Measure))
	measuring = false

	res := MicrobenchResult{
		Service:     cfg.Service,
		Cores:       cfg.Cores,
		Concurrency: conc,
		OpsPerSec:   float64(completed) / cfg.Measure.Seconds(),
	}
	return res, nil
}
