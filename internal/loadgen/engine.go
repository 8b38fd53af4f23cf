package loadgen

import (
	"container/heap"
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// virtSession is one virtual user from the engine's side; satisfied by
// *session and by test fakes.
type virtSession interface {
	Next() (workload.Request, bool)
	Think() time.Duration
	Issue(ctx context.Context, req workload.Request) (tally, error)
}

// sessionSource mints sessions; the engine's test seam.
type sessionSource interface {
	New() (virtSession, error)
}

// pooledSession is a session parked between requests.
type pooledSession struct {
	s       virtSession
	next    workload.Request
	readyAt time.Time
}

// sessionHeap orders parked sessions by readiness.
type sessionHeap []*pooledSession

func (h sessionHeap) Len() int           { return len(h) }
func (h sessionHeap) Less(i, j int) bool { return h[i].readyAt.Before(h[j].readyAt) }
func (h sessionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sessionHeap) Push(x any)        { *h = append(*h, x.(*pooledSession)) }
func (h *sessionHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// job is one dispatched arrival.
type job struct {
	ps       *pooledSession
	intended time.Time
	measured bool
}

// arrivals is an arrival policy over one run phase: it blocks until the
// next arrival is due and returns its intended instant with the session
// to carry it (nil when none can be had); ok=false ends the phase.
type arrivals func(ctx context.Context) (intended time.Time, ps *pooledSession, ok bool)

// engine is one run's shared state.
type engine struct {
	cfg    Config
	closed bool
	src    sessionSource
	tl     timeline

	pending chan job

	mu    sync.Mutex
	ready sessionHeap
	// parked wakes the closed policy when a session joins the heap.
	parked chan struct{}

	created  atomic.Int64
	inflight atomic.Int64
	peak     atomic.Int64

	// offered and dropped belong to the dispatcher goroutine.
	offered int64
	dropped int64

	recMu      sync.Mutex
	served     int64
	errors     int64
	idemFailed int64
	defenses   tally
	coHist     metrics.Histogram
	svcHist    metrics.Histogram
	byReq      [workload.NumRequests]metrics.Histogram
}

// drainGrace bounds how long after the schedule ends the engine waits
// for outstanding requests before cancelling them: their samples belong
// to windows inside the run, but a hung connection must not park the
// whole run behind a 30s client timeout.
const drainGrace = 10 * time.Second

// run is the engine body, split from Run so tests can substitute the
// session source (a fake issuer with scripted latency stands in for the
// whole HTTP stack).
func run(ctx context.Context, cfg Config, src sessionSource) (Result, error) {
	if err := cfg.fill(); err != nil { // idempotent: Run has filled already, tests have not
		return Result{}, err
	}
	e := &engine{
		cfg: cfg, closed: cfg.Users > 0, src: src,
		pending: make(chan job, cfg.MaxPending), // arrivals waiting for a connection
		parked:  make(chan struct{}, 1),
	}

	issueCtx, cancelIssue := context.WithCancel(context.Background())
	defer cancelIssue()
	var wg sync.WaitGroup
	for i := 0; i < cfg.MaxInflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work(issueCtx)
		}()
	}

	// The closed population exists from the start, its first requests
	// staggered across one think time.
	for i := 0; i < cfg.Users; i++ {
		if ps := e.mint(); ps != nil {
			e.park(ps, time.Now())
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed*7_368_787 + 1))
	// phase builds one phase's arrival policy, anchored at from.
	phase := func(from time.Time, d time.Duration, rate float64, shape RateShape, proc ArrivalProcess) arrivals {
		if e.closed {
			return e.closedArrivals(from.Add(d))
		}
		return e.openArrivals(NewSchedule(rate, d, shape, proc, rng), from)
	}
	if cfg.Warmup > 0 && ctx.Err() == nil {
		// An open loop warms up at the shape's starting rate with plain
		// Poisson texture: the phase's only job is priming sessions,
		// caches, and connections.
		var startRate float64
		if !e.closed {
			startRate = cfg.Rate * cfg.Shape.Factor(0)
		}
		e.dispatch(ctx, phase(time.Now(), cfg.Warmup, startRate, steadyShape{}, poisson{}), false)
	}

	start := time.Now()
	e.tl.begin(start)
	e.dispatch(ctx, phase(start, cfg.Duration, cfg.Rate, cfg.Shape, cfg.Arrivals), true)

	// Let in-flight work finish so late completions still land in their
	// (intended-time) windows, then cut stragglers loose.
	close(e.pending)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainGrace):
		cancelIssue()
		<-done
	case <-ctx.Done():
		cancelIssue()
		<-done
	}
	e.tl.finish(start.Add(cfg.Duration))
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	res := Result{
		ProfileName:        cfg.Profile.Name,
		OfferedRate:        float64(e.offered) / cfg.Duration.Seconds(),
		AchievedRate:       float64(e.served) / cfg.Duration.Seconds(),
		Offered:            e.offered,
		Served:             e.served,
		Errors:             e.errors,
		Dropped:            e.dropped,
		Shed:               e.defenses.shed,
		Retries:            e.defenses.retried,
		IdempotentRetries:  e.defenses.idemRetried,
		IdempotentFailures: e.idemFailed,
		CheckoutRetries:    e.defenses.checkoutRetried,
		SessionsCreated:    e.created.Load(),
		PeakInflight:       e.peak.Load(),
		Latency:            e.coHist.Snapshot(),
		ServiceLatency:     e.svcHist.Snapshot(),
		PerRequest:         map[workload.Request]metrics.Snapshot{},
		MeasureStart:       start,
		Timeline:           e.tl.windows(),
	}
	if !e.closed {
		res.Shape, res.Arrivals = cfg.Shape.Name(), cfg.Arrivals.Name()
	}
	for r := range e.byReq {
		if e.byReq[r].Count() > 0 {
			res.PerRequest[workload.Request(r)] = e.byReq[r].Snapshot()
		}
	}
	return res, nil
}

// openArrivals is the open policy: the next arrival is the schedule's,
// whatever the stack is doing, carried by any ready session or a freshly
// minted one.
func (e *engine) openArrivals(sched *Schedule, anchor time.Time) arrivals {
	return func(ctx context.Context) (time.Time, *pooledSession, bool) {
		off, ok := sched.Next()
		if !ok {
			return time.Time{}, nil, false
		}
		intended := anchor.Add(off)
		if d := time.Until(intended); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return time.Time{}, nil, false
			}
		} else if ctx.Err() != nil {
			return time.Time{}, nil, false
		}
		return intended, e.takeSession(), true
	}
}

// closedArrivals is the closed policy: the next arrival is the earliest
// parked session's own completion + think (the ready-heap head), intended
// at that instant and carried by that session, until the phase deadline.
// While every session is in flight there is no next arrival at all — the
// population, not a schedule, bounds the offered load.
func (e *engine) closedArrivals(until time.Time) arrivals {
	return func(ctx context.Context) (time.Time, *pooledSession, bool) {
		for {
			now := time.Now()
			if !now.Before(until) || ctx.Err() != nil {
				return time.Time{}, nil, false
			}
			wake := until
			e.mu.Lock()
			if len(e.ready) > 0 {
				if at := e.ready[0].readyAt; !at.After(now) {
					ps := heap.Pop(&e.ready).(*pooledSession)
					e.mu.Unlock()
					return at, ps, true
				} else if at.Before(wake) {
					wake = at
				}
			}
			e.mu.Unlock()
			select {
			case <-time.After(wake.Sub(now)):
			case <-e.parked:
			case <-ctx.Done():
			}
		}
	}
}

// dispatch walks one phase's arrivals, handing each to a connection the
// moment its time comes — or accounting it dropped, never skipping it.
func (e *engine) dispatch(ctx context.Context, next arrivals, measured bool) {
	for {
		intended, ps, ok := next(ctx)
		if !ok {
			return
		}
		if measured {
			e.offered++
			e.tl.recordOffered(intended)
		}
		if ps != nil {
			select {
			case e.pending <- job{ps: ps, intended: intended, measured: measured}:
				continue
			default:
				// Connection pool and pending buffer are both full: the
				// stack is not keeping up with the offered rate. Put the
				// unused session back.
				e.putSession(ps)
			}
		}
		// No connection, or no session (the population cap is hit with
		// nothing ready): the arrival still counts.
		if measured {
			e.dropped++
			e.tl.recordDropped(intended)
		}
	}
}

// takeSession pops a ready parked session, or mints a new one while the
// population cap allows. Sessions are created lazily, so the pool grows
// to match demand instead of pre-allocating a guess.
func (e *engine) takeSession() *pooledSession {
	now := time.Now()
	e.mu.Lock()
	if len(e.ready) > 0 && !e.ready[0].readyAt.After(now) {
		ps := heap.Pop(&e.ready).(*pooledSession)
		e.mu.Unlock()
		return ps
	}
	e.mu.Unlock()
	if e.created.Load() >= int64(e.cfg.MaxSessions) {
		return nil
	}
	return e.mint()
}

// mint creates a session positioned on its first request; nil when the
// source fails or the profile's walk ends before it starts.
func (e *engine) mint() *pooledSession {
	s, err := e.src.New()
	if err != nil {
		return nil
	}
	e.created.Add(1)
	req, ok := s.Next()
	if !ok {
		return nil
	}
	return &pooledSession{s: s, next: req}
}

// park schedules a session's next request one think time after now.
func (e *engine) park(ps *pooledSession, now time.Time) {
	ps.readyAt = now.Add(ps.s.Think())
	e.putSession(ps)
}

// putSession returns a session to the ready heap.
func (e *engine) putSession(ps *pooledSession) {
	e.mu.Lock()
	heap.Push(&e.ready, ps)
	e.mu.Unlock()
	select {
	case e.parked <- struct{}{}:
	default:
	}
}

// work is one connection: it issues pending jobs, records them against
// their intended arrival times, and re-parks or retires the session.
func (e *engine) work(ctx context.Context) {
	for jb := range e.pending {
		n := e.inflight.Add(1)
		for {
			cur := e.peak.Load()
			if n <= cur || e.peak.CompareAndSwap(cur, n) {
				break
			}
		}
		ps := jb.ps
		dispatched := time.Now()
		defenses, err := ps.s.Issue(ctx, ps.next)
		now := time.Now()
		e.inflight.Add(-1)
		if jb.measured {
			e.record(ps.next, jb.intended, dispatched, now, defenses, err)
		}

		if next, ok := ps.s.Next(); ok {
			ps.next = next
		} else if !e.closed {
			continue // walk ended: retire; the open policy mints on demand
		} else if ps = e.mint(); ps == nil {
			continue // no fresh session to take the ended walk's place
		}
		e.park(ps, now)
	}
}

// record files one measured request: the CO-safe sample from its intended
// arrival, the service-time sample from its dispatch, the defenses it
// went through, and its window — the intended second's, so a stall is
// charged to the arrivals it delayed.
func (e *engine) record(req workload.Request, intended, dispatched, done time.Time, defenses tally, err error) {
	co := done.Sub(intended).Nanoseconds()
	e.recMu.Lock()
	e.defenses.add(defenses)
	if err != nil {
		e.errors++
		if isIdempotent(req) {
			e.idemFailed++
		}
	} else {
		e.served++
		e.coHist.Record(co)
		e.svcHist.Record(done.Sub(dispatched).Nanoseconds())
		e.byReq[req].Record(co)
	}
	e.recMu.Unlock()
	e.tl.record(intended, co, err != nil)
	for i := int64(0); i < defenses.shed; i++ {
		e.tl.recordShed(intended)
	}
}
