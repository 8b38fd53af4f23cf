package sim

import (
	"fmt"

	"repro/internal/desim"
	"repro/internal/memmodel"
	"repro/internal/metrics"
	"repro/internal/simcpu"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config assembles one simulation run.
type Config struct {
	Machine    *topology.Machine
	Deployment Deployment
	// Workload is the user-behaviour profile; nil means workload.Browse().
	Workload *workload.Profile
	// Users is the closed-loop population. Exactly one of Users and
	// SessionRate must be set.
	Users int
	// SessionRate, when positive, switches to partly-open load: new user
	// sessions arrive as a Poisson process at this rate (sessions/second),
	// run to completion with think times, and leave. Offered load is then
	// independent of the system's speed — the classic setup for
	// latency-versus-load curves.
	SessionRate float64
	// Seed keys every random stream of the run.
	Seed int64
	// Warmup and Measure bound the run; stats cover only Measure.
	Warmup  desim.Duration
	Measure desim.Duration
	// ClientLatency is the one-way client↔server network latency
	// (default 100 µs).
	ClientLatency desim.Duration

	// CPU, Mem, Net override hardware model parameters (zero values mean
	// defaults).
	CPU simcpu.Params
	Mem memmodel.Params
	Net simnet.Params

	// Profiles and Requests override the service/request models (nil
	// means defaults).
	Profiles map[Service]ServiceProfile
	Requests map[workload.Request]RequestSpec

	// RouteNearest makes callers prefer the topologically closest replica
	// of a callee service (ties broken round-robin) instead of global
	// round-robin. This is the service-mesh locality routing the
	// cell-based optimized deployments rely on.
	RouteNearest bool
}

// withDefaults fills zero-valued fields.
func (c Config) withDefaults() (Config, error) {
	if c.Machine == nil {
		return c, fmt.Errorf("sim: Config.Machine is required")
	}
	if (c.Users <= 0) == (c.SessionRate <= 0) {
		return c, fmt.Errorf("sim: exactly one of Config.Users (%d) and Config.SessionRate (%v) must be positive",
			c.Users, c.SessionRate)
	}
	if c.Workload == nil {
		c.Workload = workload.Browse()
	}
	if err := c.Workload.Validate(); err != nil {
		return c, err
	}
	if c.Warmup < 0 || c.Measure <= 0 {
		return c, fmt.Errorf("sim: warmup/measure durations invalid (%v, %v)", c.Warmup, c.Measure)
	}
	if c.ClientLatency == 0 {
		c.ClientLatency = 100 * desim.Microsecond
	}
	if c.CPU == (simcpu.Params{}) {
		c.CPU = simcpu.DefaultParams()
	}
	if c.Mem == (memmodel.Params{}) {
		c.Mem = memmodel.DefaultParams()
	}
	if c.Net == (simnet.Params{}) {
		c.Net = simnet.DefaultParams()
	}
	if c.Profiles == nil {
		c.Profiles = DefaultProfiles()
	}
	if c.Requests == nil {
		c.Requests = DefaultRequestSpecs()
	}
	for _, spec := range c.Requests {
		if err := spec.Validate(); err != nil {
			return c, err
		}
	}
	if err := c.Deployment.Validate(c.Machine); err != nil {
		return c, err
	}
	return c, nil
}

// instance is the runtime state of one deployed service instance.
type instance struct {
	id     int
	spec   InstanceSpec
	prof   ServiceProfile
	region *memmodel.Region

	freeWorkers int
	waiters     []func(release func())
	running     int // segments currently on-CPU
	lock        serialLock

	busyNS int64
	served int64
}

// Engine runs one configured simulation.
type Engine struct {
	cfg    Config
	eng    *desim.Engine
	proc   *simcpu.Processor
	mem    *memmodel.Model
	fabric *simnet.Fabric

	instances []*instance
	byService [NumServices][]*instance
	rr        [NumServices]int

	// netLat[a][b] and netLevel[a][b] are precomputed instance-pair costs.
	netLat   [][]desim.Duration
	netLevel [][]topology.Level

	demandRNG desim.RNG
	thinkRNG  desim.RNG
	walkRNG   desim.RNG

	measuring bool
	histAll   metrics.Histogram
	histByReq [workload.NumRequests]metrics.Histogram
	tput      metrics.Throughput
	sessions  metrics.Throughput
}

// NewEngine validates the config and builds the simulation (without
// running it).
func NewEngine(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, eng: desim.New()}
	if e.proc, err = simcpu.New(e.eng, cfg.Machine, cfg.CPU); err != nil {
		return nil, err
	}
	if e.mem, err = memmodel.New(cfg.Machine, cfg.Mem); err != nil {
		return nil, err
	}
	if e.fabric, err = simnet.NewFabric(cfg.Machine, cfg.Net); err != nil {
		return nil, err
	}
	pool := desim.NewRNGPool(cfg.Seed)
	e.demandRNG = pool.Stream("demand")
	e.thinkRNG = pool.Stream("think")
	e.walkRNG = pool.Stream("walk")

	for i, spec := range cfg.Deployment.Instances {
		prof, ok := cfg.Profiles[spec.Service]
		if !ok {
			return nil, fmt.Errorf("sim: no profile for service %v", spec.Service)
		}
		region, err := e.mem.AddRegion(prof.WSBytes, spec.HomeNUMA, spec.Affinity)
		if err != nil {
			return nil, err
		}
		inst := &instance{
			id: i, spec: spec, prof: prof, region: region,
			freeWorkers: spec.Workers,
		}
		e.instances = append(e.instances, inst)
		e.byService[spec.Service] = append(e.byService[spec.Service], inst)
	}
	e.precomputeNetCosts()
	return e, nil
}

// precomputeNetCosts caches instance-pair latency and relation level,
// averaging over one representative CPU per CCX of the caller's affinity.
func (e *Engine) precomputeNetCosts() {
	mach := e.cfg.Machine
	n := len(e.instances)
	e.netLat = make([][]desim.Duration, n)
	e.netLevel = make([][]topology.Level, n)

	// Representative caller CPUs per instance: one per CCX of affinity.
	reps := make([][]int, n)
	for i, inst := range e.instances {
		seen := map[int]bool{}
		add := func(id int) {
			ccx := mach.CPU(id).CCX
			if !seen[ccx] {
				seen[ccx] = true
				reps[i] = append(reps[i], id)
			}
		}
		if inst.spec.Affinity.Empty() {
			for id := 0; id < mach.NumCPUs(); id++ {
				add(id)
			}
		} else {
			inst.spec.Affinity.ForEach(add)
		}
	}

	for a := range e.instances {
		e.netLat[a] = make([]desim.Duration, n)
		e.netLevel[a] = make([]topology.Level, n)
		for b := range e.instances {
			var sum desim.Duration
			for _, cpu := range reps[a] {
				sum += e.fabric.AvgLatency(cpu, e.instances[b].spec.Affinity)
			}
			avg := sum / desim.Duration(len(reps[a]))
			e.netLat[a][b] = avg
			// Classify the average back onto a level for CPU costs.
			lvl := topology.LevelMachine
			for l := topology.LevelThread; l <= topology.LevelMachine; l++ {
				if e.fabric.Params().Latency[l] >= avg {
					lvl = l
					break
				}
			}
			e.netLevel[a][b] = lvl
		}
	}
}

// pick returns the next replica of a service, round-robin. Used for
// client→WebUI routing, where the caller has no topology position.
func (e *Engine) pick(s Service) *instance {
	list := e.byService[s]
	inst := list[e.rr[s]%len(list)]
	e.rr[s]++
	return inst
}

// pickFor returns the replica of s that a caller instance should use:
// global round-robin by default, or the nearest replica (by precomputed
// pair latency, ties round-robin) under RouteNearest.
func (e *Engine) pickFor(from *instance, s Service) *instance {
	list := e.byService[s]
	if !e.cfg.RouteNearest || len(list) == 1 {
		return e.pick(s)
	}
	best := desim.Duration(1 << 62)
	for _, cand := range list {
		if lat := e.netLat[from.id][cand.id]; lat < best {
			best = lat
		}
	}
	var nearest []*instance
	for _, cand := range list {
		if e.netLat[from.id][cand.id] == best {
			nearest = append(nearest, cand)
		}
	}
	inst := nearest[e.rr[s]%len(nearest)]
	e.rr[s]++
	return inst
}

// acquire hands a worker of inst to fn, queueing FIFO when the pool is
// exhausted. fn must call the release it receives exactly once when the
// worker is free.
func (e *Engine) acquire(inst *instance, fn func(release func())) {
	if inst.freeWorkers > 0 {
		inst.freeWorkers--
		e.acquireRun(inst, fn)
		return
	}
	inst.waiters = append(inst.waiters, fn)
}

// acquireRun invokes fn with a fresh release closure.
func (e *Engine) acquireRun(inst *instance, fn func(release func())) {
	released := false
	fn(func() {
		if released {
			panic("sim: double release of worker")
		}
		released = true
		if len(inst.waiters) > 0 {
			next := inst.waiters[0]
			inst.waiters = inst.waiters[1:]
			e.acquireRun(inst, next)
			return
		}
		inst.freeWorkers++
	})
}

// runSegment executes one CPU burst on the instance's affinity with its
// memory-model CPI, accounting busy time. onCPU ≥ 0 continues directly on
// that (just-vacated) CPU; priority marks lock-holder continuations that
// must not re-queue behind ordinary work if the direct handoff misses.
// done receives the CPU the burst finished on.
func (e *Engine) runSegment(inst *instance, work desim.Duration, onCPU int, priority bool, done func(cpu int)) {
	if work <= 0 {
		done(onCPU)
		return
	}
	var startAt desim.Time
	seg := &simcpu.Segment{
		Work:     work,
		Priority: priority,
		Affinity: inst.spec.Affinity,
		CPI: func(cpu int) float64 {
			return e.mem.CPI(inst.region, cpu, inst.prof.MemWeight)
		},
		OnStart: func(cpu int) {
			inst.running++
			startAt = e.eng.Now()
		},
		OnDone: func(cpu int) {
			inst.running--
			if e.measuring {
				inst.busyNS += int64(e.eng.Now().Sub(startAt))
			}
			done(cpu)
		},
	}
	if onCPU >= 0 {
		e.proc.SubmitOn(seg, onCPU)
	} else {
		e.proc.Submit(seg)
	}
}

// exec runs one handler's CPU demand on the instance. The SerialFrac
// portion executes under the instance's critical section: when the lock is
// free the thread continues on its CPU without a gap; when contended it
// blocks, and the releaser hands lock and CPU over directly — so one
// instance's serial throughput is bounded by the serial exec time alone,
// the classic USL σ ceiling.
func (e *Engine) exec(inst *instance, demand desim.Duration, done func()) {
	if demand <= 0 {
		done()
		return
	}
	f := inst.prof.SerialFrac
	if f <= 0 {
		e.runSegment(inst, demand, -1, false, func(int) { done() })
		return
	}
	serial := desim.Duration(float64(demand) * f)
	parallel := demand - serial
	e.runSegment(inst, parallel, -1, false, func(cpu int) {
		inst.lock.acquire(cpu, func(cpu int) {
			e.runSegment(inst, serial, cpu, true, func(cpu int) {
				inst.lock.release(cpu)
				done()
			})
		})
	})
}

// sampleDemand draws a lognormal handler demand for the instance.
func (e *Engine) sampleDemand(inst *instance, median desim.Duration) desim.Duration {
	if median <= 0 {
		return 0
	}
	return e.demandRNG.LogNormal(median, inst.prof.DemandSigma)
}

// issueOp sends one RPC from the WebUI instance to the resolved callee:
// request latency → callee worker → handler segment → response latency →
// done.
func (e *Engine) issueOp(from *instance, op Op, callee *instance, done func()) {
	lat := e.netLat[from.id][callee.id]
	level := e.netLevel[from.id][callee.id]
	_, recvCPU := e.fabric.CPUCosts(level, op.Payload)
	replySend, _ := e.fabric.CPUCosts(level, op.Payload)
	handler := recvCPU + e.sampleDemand(callee, op.Demand) + replySend

	e.eng.After(lat, func() {
		e.acquire(callee, func(release func()) {
			e.exec(callee, handler, func() {
				callee.served++
				release()
				e.eng.After(lat, done)
			})
		})
	})
}

// serve executes one user request end-to-end, calling done when the
// response reaches the client.
func (e *Engine) serve(req workload.Request, done func()) {
	spec := e.cfg.Requests[req]
	w := e.pick(WebUI)
	e.eng.After(e.cfg.ClientLatency, func() {
		e.acquire(w, func(release func()) {
			// Resolve every op's callee now, then account the send tax in
			// the pre segment and the reply-receive tax in the post
			// segment (sequential sends are also folded into post).
			parCallees := make([]*instance, len(spec.Parallel))
			seqCallees := make([]*instance, len(spec.Sequential))
			pre := e.sampleDemand(w, spec.Pre)
			var post desim.Duration
			for i, op := range spec.Parallel {
				parCallees[i] = e.pickFor(w, op.Target)
				send, recv := e.fabric.CPUCosts(e.netLevel[w.id][parCallees[i].id], op.Payload)
				pre += send
				post += recv
			}
			for i, op := range spec.Sequential {
				seqCallees[i] = e.pickFor(w, op.Target)
				send, recv := e.fabric.CPUCosts(e.netLevel[w.id][seqCallees[i].id], op.Payload)
				post += send + recv
			}
			finish := func() {
				e.exec(w, e.sampleDemand(w, spec.Post)+post, func() {
					w.served++
					release()
					e.eng.After(e.cfg.ClientLatency, done)
				})
			}
			runSequential := func() {
				i := 0
				var next func()
				next = func() {
					if i >= len(spec.Sequential) {
						finish()
						return
					}
					op := spec.Sequential[i]
					callee := seqCallees[i]
					i++
					e.issueOp(w, op, callee, next)
				}
				next()
			}
			e.exec(w, pre, func() {
				if len(spec.Parallel) == 0 {
					runSequential()
					return
				}
				remaining := len(spec.Parallel)
				for i, op := range spec.Parallel {
					e.issueOp(w, op, parCallees[i], func() {
						remaining--
						if remaining == 0 {
							runSequential()
						}
					})
				}
			})
		})
	})
}

// think samples one think-time gap.
func (e *Engine) think() desim.Duration {
	return e.thinkRNG.LogNormal(desim.Duration(e.cfg.Workload.ThinkMedian), e.cfg.Workload.ThinkSigma)
}

// runSession walks one full user session, thinking between requests, and
// calls done when the session ends.
func (e *Engine) runSession(done func()) {
	walker := workload.NewWalker(e.cfg.Workload, e.walkRNG)
	var step func()
	step = func() {
		req, ok := walker.Next()
		if !ok {
			if e.measuring {
				e.sessions.Add(1)
			}
			done()
			return
		}
		issued := e.eng.Now()
		e.serve(req, func() {
			if e.measuring {
				lat := int64(e.eng.Now().Sub(issued))
				e.histAll.Record(lat)
				e.histByReq[req].Record(lat)
				e.tput.Add(1)
			}
			e.eng.After(e.think(), step)
		})
	}
	step()
}

// startClient launches one closed-loop user: session after session,
// forever.
func (e *Engine) startClient(id int) {
	var loop func()
	loop = func() {
		e.runSession(func() {
			e.eng.After(e.think(), loop)
		})
	}
	// Stagger arrivals across one think time to avoid a thundering herd.
	e.eng.After(e.thinkRNG.Uniform(0, desim.Duration(e.cfg.Workload.ThinkMedian)+1), loop)
}

// startArrivals launches the partly-open Poisson session-arrival process.
func (e *Engine) startArrivals() {
	mean := desim.DurationOf(1 / e.cfg.SessionRate)
	var arrive func()
	arrive = func() {
		e.runSession(func() {})
		e.eng.After(e.thinkRNG.Exp(mean), arrive)
	}
	e.eng.After(e.thinkRNG.Exp(mean), arrive)
}

// startHeartbeats schedules registry heartbeats from every instance,
// staggered across the period so they don't all land in one burst.
func (e *Engine) startHeartbeats() {
	reg := e.byService[Registry][0]
	n := len(e.instances)
	for i := range e.instances {
		offset := desim.Duration(int64(HeartbeatPeriod) * int64(i) / int64(n))
		e.eng.After(offset, func() {
			e.eng.Ticker(HeartbeatPeriod, func() {
				e.acquire(reg, func(release func()) {
					e.exec(reg, heartbeatDemand, func() {
						reg.served++
						release()
					})
				})
			})
		})
	}
}

// Run executes the configured simulation and returns its measurements.
func (e *Engine) Run() Result {
	e.startHeartbeats()
	if e.cfg.SessionRate > 0 {
		e.startArrivals()
	} else {
		for i := 0; i < e.cfg.Users; i++ {
			e.startClient(i)
		}
	}
	e.eng.RunUntil(desim.Time(e.cfg.Warmup))

	// Open the measurement window.
	e.measuring = true
	e.proc.ResetStats()
	for _, inst := range e.instances {
		inst.busyNS = 0
		inst.served = 0
	}
	e.tput.Start(int64(e.eng.Now()))
	e.sessions.Start(int64(e.eng.Now()))

	e.eng.RunUntil(desim.Time(e.cfg.Warmup + e.cfg.Measure))
	e.measuring = false
	e.tput.Stop(int64(e.eng.Now()))
	e.sessions.Stop(int64(e.eng.Now()))
	return e.collect()
}
