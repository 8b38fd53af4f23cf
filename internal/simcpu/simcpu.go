// Package simcpu executes simulated work segments on the logical CPUs of a
// topology.Machine inside a desim simulation.
//
// The model captures the three hardware effects the paper's optimizations
// exploit:
//
//   - SMT contention: when both hardware threads of a core are busy, each
//     retires work at Params.SMTFactor of its solo rate, so a core's
//     combined throughput is ~2×SMTFactor (≈1.24× at the default 0.62) —
//     not 2×.
//   - Frequency boost: lightly-loaded sockets clock above base; the
//     effective frequency falls linearly toward base as more cores become
//     active, mirroring EPYC boost behaviour.
//   - Memory-dependent CPI: each segment carries a CPI multiplier sampled
//     at dispatch (supplied by the memmodel package from cache/NUMA
//     state); a multiplier of 1.3 makes the segment take 1.3× longer.
//
// Segments are run-to-completion (no preemption): a fair approximation of
// CFS for throughput studies where segments are far shorter than the
// scheduling latency targets of interest.
package simcpu

import (
	"fmt"

	"repro/internal/desim"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// Params tune the hardware behaviour model.
type Params struct {
	// SMTFactor is the per-thread retirement rate when the SMT sibling is
	// busy, relative to running alone on the core. Typical x86 server
	// values are 0.55–0.70.
	SMTFactor float64
	// BoostEnabled turns the frequency-boost model on. When off, every
	// core runs at base frequency regardless of load.
	BoostEnabled bool
}

// DefaultParams returns the calibrated defaults used by the experiments.
func DefaultParams() Params {
	return Params{SMTFactor: 0.62, BoostEnabled: true}
}

// Validate reports the first problem with the parameters.
func (p Params) Validate() error {
	if p.SMTFactor <= 0 || p.SMTFactor > 1 {
		return fmt.Errorf("simcpu: SMTFactor %v outside (0,1]", p.SMTFactor)
	}
	return nil
}

// Segment is one run-to-completion unit of CPU work.
type Segment struct {
	// Work is the nominal demand: how long the segment runs alone on an
	// idle machine at base frequency with CPI multiplier 1.
	Work desim.Duration
	// Affinity is the set of logical CPUs the segment may run on. An
	// empty set means "any CPU".
	Affinity topology.CPUSet
	// CPI, when non-nil, returns the CPI multiplier for running on the
	// given CPU, sampled once at dispatch. nil means 1.0.
	CPI func(cpu int) float64
	// OnStart, when non-nil, runs when the segment is dispatched.
	OnStart func(cpu int)
	// OnDone runs when the segment completes. Required.
	OnDone func(cpu int)
	// Priority segments jump ahead of normal waiters when no CPU is idle.
	// Used for lock-holder continuations: a thread that just acquired a
	// critical section is already running in the real system and must not
	// re-queue behind ordinary work.
	Priority bool
}

// task is the running state of a dispatched segment.
type task struct {
	seg        *Segment
	cpu        int
	remaining  float64 // nominal nanoseconds of work left
	rate       float64 // nominal ns retired per simulated ns
	baseRate   float64 // rate ignoring SMT (boost / cpi)
	lastUpdate desim.Time
	ev         desim.EventID
}

// Processor dispatches segments onto the machine's logical CPUs.
type Processor struct {
	eng    *desim.Engine
	mach   *topology.Machine
	params Params

	running []*task // indexed by logical CPU; nil when idle
	waiting []*Segment

	// busyCores[socket] counts cores with ≥1 busy thread, for boost.
	busyCores    []int
	coresPerSock int

	busy *metrics.BusyTracker
}

// New returns a Processor for the machine.
func New(eng *desim.Engine, mach *topology.Machine, params Params) (*Processor, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Processor{
		eng:          eng,
		mach:         mach,
		params:       params,
		running:      make([]*task, mach.NumCPUs()),
		busyCores:    make([]int, mach.NumSockets()),
		coresPerSock: mach.NumCores() / mach.NumSockets(),
		busy:         metrics.NewBusyTracker(mach.NumCPUs()),
	}, nil
}

// Submit dispatches the segment now if a CPU in its affinity set is idle,
// otherwise queues it FIFO. Zero-work segments complete immediately
// without occupying a CPU.
func (p *Processor) Submit(seg *Segment) {
	if seg.OnDone == nil {
		panic("simcpu: segment without OnDone")
	}
	if seg.Work <= 0 {
		if seg.OnStart != nil {
			seg.OnStart(-1)
		}
		seg.OnDone(-1)
		return
	}
	if cpu, ok := p.pickCPU(seg.Affinity); ok {
		p.start(seg, cpu)
		return
	}
	if seg.Priority {
		// Insert after existing priority waiters, before normal ones.
		pos := 0
		for pos < len(p.waiting) && p.waiting[pos].Priority {
			pos++
		}
		p.waiting = append(p.waiting, nil)
		copy(p.waiting[pos+1:], p.waiting[pos:])
		p.waiting[pos] = seg
	} else {
		p.waiting = append(p.waiting, seg)
	}
}

// pickCPU chooses an idle CPU from the set, preferring fully-idle cores
// (no busy SMT sibling) so single-thread performance is preserved — the
// same heuristic the Linux scheduler's SIS applies.
func (p *Processor) pickCPU(set topology.CPUSet) (int, bool) {
	halfIdle := -1
	found := -1
	scan := func(id int) {
		if found >= 0 || p.running[id] != nil {
			return
		}
		if sib := p.sibling(id); sib < 0 || p.running[sib] == nil {
			found = id
			return
		}
		if halfIdle < 0 {
			halfIdle = id
		}
	}
	if set.Empty() {
		for id := 0; id < p.mach.NumCPUs() && found < 0; id++ {
			scan(id)
		}
	} else {
		set.ForEach(scan)
	}
	if found >= 0 {
		return found, true
	}
	if halfIdle >= 0 {
		return halfIdle, true
	}
	return -1, false
}

// sibling returns the other SMT thread of cpu's core, or -1.
func (p *Processor) sibling(cpu int) int {
	sibs := p.mach.CoreSiblings(p.mach.CPU(cpu).Core)
	for _, s := range sibs {
		if s != cpu {
			return s
		}
	}
	return -1
}

// boostRatio returns the current frequency ratio (≥1) for a socket, given
// its busy-core count. Linear de-rating from boost to base as the socket
// fills, matching published EPYC boost ladders to first order.
func (p *Processor) boostRatio(socket int) float64 {
	if !p.params.BoostEnabled {
		return 1
	}
	cfg := p.mach.Config()
	frac := float64(p.busyCores[socket]) / float64(p.coresPerSock)
	ghz := cfg.BoostGHz - (cfg.BoostGHz-cfg.BaseGHz)*frac
	return ghz / cfg.BaseGHz
}

// start dispatches seg on cpu.
func (p *Processor) start(seg *Segment, cpu int) {
	now := p.eng.Now()
	cpi := 1.0
	if seg.CPI != nil {
		cpi = seg.CPI(cpu)
		if cpi < 1 {
			cpi = 1
		}
	}
	cpuInfo := p.mach.CPU(cpu)
	// Count the core busy before sampling boost so a task sees the boost
	// level that includes itself.
	sib := p.sibling(cpu)
	sibBusy := sib >= 0 && p.running[sib] != nil
	if !sibBusy {
		p.busyCores[cpuInfo.Socket]++
	}
	t := &task{
		seg:        seg,
		cpu:        cpu,
		remaining:  float64(seg.Work),
		baseRate:   p.boostRatio(cpuInfo.Socket) / cpi,
		lastUpdate: now,
	}
	p.running[cpu] = t
	p.busy.Adjust(int64(now), +1)

	if sibBusy {
		// Both threads now contend: slow the sibling and ourselves.
		p.retime(p.running[sib], p.running[sib].baseRate*p.params.SMTFactor)
		t.rate = t.baseRate * p.params.SMTFactor
	} else {
		t.rate = t.baseRate
	}
	t.ev = p.eng.After(durationFor(t.remaining, t.rate), func() { p.finish(t) })
	if seg.OnStart != nil {
		seg.OnStart(cpu)
	}
}

// retime updates a running task's rate, rescheduling its completion.
func (p *Processor) retime(t *task, newRate float64) {
	now := p.eng.Now()
	elapsed := float64(now.Sub(t.lastUpdate))
	t.remaining -= elapsed * t.rate
	if t.remaining < 0 {
		t.remaining = 0
	}
	t.lastUpdate = now
	t.rate = newRate
	p.eng.Cancel(t.ev)
	t.ev = p.eng.After(durationFor(t.remaining, t.rate), func() { p.finish(t) })
}

// durationFor converts nominal work at a rate into simulated time,
// rounding up so zero-remaining tasks still complete via an event.
func durationFor(work, rate float64) desim.Duration {
	if work <= 0 {
		return 0
	}
	d := desim.Duration(work / rate)
	if d < 1 {
		d = 1
	}
	return d
}

// finish completes a task: frees the CPU, restores the sibling's rate,
// runs the completion callback (which may reclaim the CPU via SubmitOn —
// the lock-holder-continues-on-CPU path), then hands the CPU to the oldest
// waiting segment if it is still idle.
func (p *Processor) finish(t *task) {
	now := p.eng.Now()
	cpu := t.cpu
	p.running[cpu] = nil
	p.busy.Adjust(int64(now), -1)

	sib := p.sibling(cpu)
	if sib >= 0 && p.running[sib] != nil {
		// Sibling now runs alone on the core: speed it back up.
		p.retime(p.running[sib], p.running[sib].baseRate)
	} else {
		p.busyCores[p.mach.CPU(cpu).Socket]--
	}

	t.seg.OnDone(cpu)
	if p.running[cpu] == nil {
		p.grantTo(cpu)
	}
}

// SubmitOn starts the segment directly on the given CPU, bypassing the
// wait queue. It models a thread that keeps its CPU across a logical
// transition (e.g. continuing into a critical section) and is only valid
// while the CPU is idle — in practice, from inside an OnDone callback of a
// segment that just released it. Invalid CPUs (busy, or -1 from zero-work
// completions) fall back to normal Submit.
func (p *Processor) SubmitOn(seg *Segment, cpu int) {
	if seg.OnDone == nil {
		panic("simcpu: segment without OnDone")
	}
	if seg.Work <= 0 || cpu < 0 || !p.mach.ValidCPU(cpu) || p.running[cpu] != nil {
		p.Submit(seg)
		return
	}
	p.start(seg, cpu)
}

// grantTo hands the (now idle) cpu to the first waiting segment whose
// affinity allows it.
func (p *Processor) grantTo(cpu int) {
	for i, seg := range p.waiting {
		if seg.Affinity.Empty() || seg.Affinity.Contains(cpu) {
			p.waiting = append(p.waiting[:i], p.waiting[i+1:]...)
			p.start(seg, cpu)
			return
		}
	}
}

// Utilization returns machine-wide mean CPU utilization since the last
// ResetStats (or the start).
func (p *Processor) Utilization() float64 {
	return p.busy.Utilization(int64(p.eng.Now()))
}

// ResetStats restarts utilization accounting at the current simulation
// time (for excluding warmup).
func (p *Processor) ResetStats() { p.busy.Reset(int64(p.eng.Now())) }
