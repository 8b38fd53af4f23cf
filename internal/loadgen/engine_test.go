package loadgen

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// fakeSession is a scripted virtual user: walkLen requests of ReqHome,
// fixed think time, issue behaviour supplied by the test.
type fakeSession struct {
	issue   func(ctx context.Context) error
	think   time.Duration
	walkLen int
	pos     int
	ended   *atomic.Int64
}

func (s *fakeSession) Next() (workload.Request, bool) {
	if s.pos >= s.walkLen {
		s.ended.Add(1)
		return 0, false
	}
	s.pos++
	return workload.ReqHome, true
}
func (s *fakeSession) Think() time.Duration { return s.think }
func (s *fakeSession) Issue(ctx context.Context, _ workload.Request) (tally, error) {
	return tally{}, s.issue(ctx)
}

// fakeSource mints fakeSessions.
type fakeSource struct {
	issue   func(ctx context.Context) error
	think   time.Duration
	walkLen int
	minted  atomic.Int64
	ended   atomic.Int64 // walks that ran out
}

func (f *fakeSource) New() (virtSession, error) {
	f.minted.Add(1)
	return &fakeSession{issue: f.issue, think: f.think, walkLen: f.walkLen, ended: &f.ended}, nil
}

// TestEngineCoordinatedOmissionVisible is the CO proof: a 1-second
// server stall at 100 rps must produce on the order of 100 high-latency
// samples — one per intended arrival during the stall — in the CO-safe
// distribution, while the service-time distribution (completion −
// dispatch, what a closed loop reports) stays low because only the few
// in-flight requests ever experienced the stall directly.
func TestEngineCoordinatedOmissionVisible(t *testing.T) {
	var anchorNs atomic.Int64
	issue := func(ctx context.Context) error {
		now := time.Now()
		anchorNs.CompareAndSwap(0, now.UnixNano())
		anchor := time.Unix(0, anchorNs.Load())
		if el := now.Sub(anchor); el >= time.Second && el < 2*time.Second {
			// The stall: everything dispatched in second [1,2) blocks
			// until the stall lifts.
			select {
			case <-time.After(time.Until(anchor.Add(2 * time.Second))):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		time.Sleep(time.Millisecond)
		return nil
	}
	src := &fakeSource{issue: issue, walkLen: 1 << 20}
	res, err := run(context.Background(), Config{
		Rate:        100,
		Duration:    3 * time.Second,
		Arrivals:    uniform{},
		MaxInflight: 8,
		MaxPending:  10_000,
	}, src)
	if err != nil {
		t.Fatal(err)
	}

	if res.Offered != res.Served+res.Errors+res.Dropped {
		t.Fatalf("accounting: offered %d != served %d + errors %d + dropped %d",
			res.Offered, res.Served, res.Errors, res.Dropped)
	}
	if res.Dropped != 0 || res.Errors != 0 {
		t.Fatalf("dropped %d, errors %d; want 0 (pending buffer was ample)", res.Dropped, res.Errors)
	}
	if math.Abs(float64(res.Offered)-300) > 3 {
		t.Fatalf("offered %d arrivals, want ≈300", res.Offered)
	}

	// ~100 arrivals were intended during the stall; those intended in its
	// first half waited ≥500ms. P90 of 300 samples reaches into them.
	if got := time.Duration(res.Latency.P90); got < 300*time.Millisecond {
		t.Fatalf("CO-safe P90 = %v, want ≥300ms: the stall's queueing delay must be charged to the stalled arrivals", got)
	}
	// The closed-loop-style view must NOT see it: only ≤8 in-flight
	// requests actually touched the stall.
	if got := time.Duration(res.ServiceLatency.P90); got > 100*time.Millisecond {
		t.Fatalf("service-time P90 = %v, want ≤100ms: only the few dispatched requests stalled", got)
	}

	// The per-second windows localize the damage: the stall second is
	// slow, the first second is clean.
	if len(res.Timeline) < 3 {
		t.Fatalf("timeline has %d windows, want 3", len(res.Timeline))
	}
	if p99 := time.Duration(res.Timeline[1].P99Ns); p99 < 500*time.Millisecond {
		t.Fatalf("stall-second window p99 = %v, want ≥500ms", p99)
	}
	if p99 := time.Duration(res.Timeline[0].P99Ns); p99 > 50*time.Millisecond {
		t.Fatalf("pre-stall window p99 = %v, want ≤50ms", p99)
	}
}

// TestEngineSessionMultiplexing: with 200ms think times at 500 rps, the
// in-flight cap of 16 connections must be fed by a far larger virtual
// population — sessions ≫ inflight is the open-loop population model.
func TestEngineSessionMultiplexing(t *testing.T) {
	src := &fakeSource{
		issue:   func(context.Context) error { time.Sleep(time.Millisecond); return nil },
		think:   200 * time.Millisecond,
		walkLen: 1 << 20,
	}
	res, err := run(context.Background(), Config{
		Rate:        500,
		Duration:    2 * time.Second,
		Arrivals:    uniform{},
		MaxInflight: 16,
		MaxPending:  10_000,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakInflight > 16 {
		t.Fatalf("peak inflight %d exceeds MaxInflight 16", res.PeakInflight)
	}
	if res.SessionsCreated < 3*16 {
		t.Fatalf("sessions created %d, want ≫ inflight cap 16: think time must force multiplexing", res.SessionsCreated)
	}
	if res.SessionsCreated != src.minted.Load() {
		t.Fatalf("result says %d sessions, source minted %d", res.SessionsCreated, src.minted.Load())
	}
}

// TestEngineDropsAccounted: when the connection pool and pending buffer
// are both full, arrivals are counted dropped — never silently skipped —
// and the offered = served + errors + dropped identity holds exactly.
func TestEngineDropsAccounted(t *testing.T) {
	src := &fakeSource{
		issue:   func(context.Context) error { time.Sleep(50 * time.Millisecond); return nil },
		walkLen: 1 << 20,
	}
	res, err := run(context.Background(), Config{
		Rate:        200,
		Duration:    time.Second,
		Arrivals:    uniform{},
		MaxInflight: 2,
		MaxPending:  2,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("expected drops: capacity 40 rps against 200 rps offered")
	}
	if res.Offered != res.Served+res.Errors+res.Dropped {
		t.Fatalf("accounting: offered %d != served %d + errors %d + dropped %d",
			res.Offered, res.Served, res.Errors, res.Dropped)
	}
	// Reported windows cover only complete seconds (a boundary arrival
	// can be truncated with its partial window), but within each window
	// the offered = served + errors + dropped identity must hold.
	var winDropped int64
	for _, w := range res.Timeline {
		winDropped += w.Dropped
		if w.Offered != w.Requests+w.Errors+w.Dropped {
			t.Fatalf("window %d: offered %d != requests %d + errors %d + dropped %d",
				w.Second, w.Offered, w.Requests, w.Errors, w.Dropped)
		}
	}
	if winDropped == 0 {
		t.Fatal("no drops visible in the per-second windows")
	}
}

// TestEngineErrorsCounted: issue errors land in Errors and in the window
// error column, preserving the accounting identity.
func TestEngineErrorsCounted(t *testing.T) {
	var n atomic.Int64
	src := &fakeSource{
		issue: func(context.Context) error {
			if n.Add(1)%5 == 0 {
				return context.DeadlineExceeded
			}
			return nil
		},
		walkLen: 1 << 20,
	}
	res, err := run(context.Background(), Config{
		Rate:        100,
		Duration:    time.Second,
		Arrivals:    uniform{},
		MaxInflight: 8,
		MaxPending:  1000,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("expected errors from the failing issuer")
	}
	if res.Offered != res.Served+res.Errors+res.Dropped {
		t.Fatalf("accounting: offered %d != served %d + errors %d + dropped %d",
			res.Offered, res.Served, res.Errors, res.Dropped)
	}
}

// TestEngineRetiresEndedWalks: a profile whose walk ends after one
// request retires the session, so the population keeps turning over
// instead of reusing ended sessions.
func TestEngineRetiresEndedWalks(t *testing.T) {
	src := &fakeSource{
		issue:   func(context.Context) error { return nil },
		walkLen: 1,
	}
	res, err := run(context.Background(), Config{
		Rate:        100,
		Duration:    time.Second,
		Arrivals:    uniform{},
		MaxInflight: 8,
		MaxPending:  1000,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionsCreated < res.Served {
		t.Fatalf("sessions created %d < served %d: one-request walks must retire and remint", res.SessionsCreated, res.Served)
	}
}

// TestEngineClosedLittlesLaw: under the closed policy N users with
// service time S and think time Z complete N·T/(S+Z) requests in T — the
// population, not a schedule, sets the rate. Nothing is dropped, no more
// than N requests are ever in flight, and every ended walk is replaced by
// exactly one fresh session.
func TestEngineClosedLittlesLaw(t *testing.T) {
	const (
		users   = 8
		service = 10 * time.Millisecond
		think   = 40 * time.Millisecond
		dur     = 2 * time.Second
	)
	src := &fakeSource{
		issue:   func(context.Context) error { time.Sleep(service); return nil },
		think:   think,
		walkLen: 10,
	}
	res, err := run(context.Background(), Config{Users: users, Duration: dur}, src)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(users) * dur.Seconds() / (service + think).Seconds()
	if math.Abs(float64(res.Served)-want) > 0.10*want {
		t.Fatalf("served %d, want %.0f ±10%% (N·T/(S+Z))", res.Served, want)
	}
	if res.Dropped != 0 || res.Errors != 0 {
		t.Fatalf("dropped %d, errors %d; a closed loop never drops", res.Dropped, res.Errors)
	}
	if res.Offered != res.Served+res.Errors+res.Dropped {
		t.Fatalf("accounting: offered %d != served %d + errors %d + dropped %d",
			res.Offered, res.Served, res.Errors, res.Dropped)
	}
	if res.PeakInflight > users {
		t.Fatalf("peak inflight %d exceeds the population %d", res.PeakInflight, users)
	}
	if got, want := src.minted.Load(), users+src.ended.Load(); got != want || res.SessionsCreated != got {
		t.Fatalf("minted %d sessions (result says %d), want population %d + %d ended walks = %d",
			got, res.SessionsCreated, users, src.ended.Load(), want)
	}
}

// TestEngineCoordinatedOmissionBothSides is the mirror of
// TestEngineCoordinatedOmissionVisible: the same 1-second stall, seen by
// the same engine under both arrival policies. The closed population of
// 8 stops offering while it waits, so the stall costs it at most 8 slow
// samples and its two latency views coincide; the open schedule keeps
// arriving at 100 rps, so the stall second alone holds ~100 arrivals,
// most of them slow.
func TestEngineCoordinatedOmissionBothSides(t *testing.T) {
	// stallScript blocks everything dispatched in second [1,2) after the
	// first issue until the stall lifts, counting who it caught.
	stallScript := func(stalled *atomic.Int64) func(context.Context) error {
		var anchorNs atomic.Int64
		return func(ctx context.Context) error {
			now := time.Now()
			anchorNs.CompareAndSwap(0, now.UnixNano())
			anchor := time.Unix(0, anchorNs.Load())
			if el := now.Sub(anchor); el >= time.Second && el < 2*time.Second {
				stalled.Add(1)
				select {
				case <-time.After(time.Until(anchor.Add(2 * time.Second))):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			time.Sleep(time.Millisecond)
			return nil
		}
	}
	slow := func(w Window) bool { return time.Duration(w.P99Ns) >= 500*time.Millisecond }

	var stalled atomic.Int64
	closed, err := run(context.Background(), Config{Users: 8, Duration: 3 * time.Second},
		&fakeSource{issue: stallScript(&stalled), think: 9 * time.Millisecond, walkLen: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if n := stalled.Load(); n < 1 || n > 8 {
		t.Fatalf("closed loop: %d requests met the stall, want 1..8 (the population)", n)
	}
	if closed.Dropped != 0 || closed.Offered != closed.Served+closed.Errors {
		t.Fatalf("closed loop accounting: offered %d, served %d, errors %d, dropped %d",
			closed.Offered, closed.Served, closed.Errors, closed.Dropped)
	}
	// Only those ≤8 samples are slow: the rest of the distribution never
	// saw the stall, and the CO-safe view has nothing to add to the
	// service-time view.
	if got := time.Duration(closed.Latency.P90); got > 100*time.Millisecond {
		t.Fatalf("closed loop P90 = %v, want ≤100ms: the population stopped offering during the stall", got)
	}
	if co, svc := time.Duration(closed.Latency.Max), time.Duration(closed.ServiceLatency.Max); co < 900*time.Millisecond || co-svc > 50*time.Millisecond {
		t.Fatalf("closed loop max latency CO %v vs service %v: want both ≈1s, the views coincide", co, svc)
	}
	if len(closed.Timeline) < 3 || !slow(closed.Timeline[1]) || closed.Timeline[1].Requests > 2*8 {
		t.Fatalf("closed loop stall window = %+v, want a slow second holding only the population's requests", closed.Timeline)
	}

	open, err := run(context.Background(), Config{
		Rate: 100, Duration: 3 * time.Second, Arrivals: uniform{}, MaxInflight: 8, MaxPending: 10_000,
	}, &fakeSource{issue: stallScript(new(atomic.Int64)), walkLen: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(open.Timeline) < 3 || !slow(open.Timeline[1]) || open.Timeline[1].Requests < 90 {
		t.Fatalf("open loop stall window = %+v, want ≈100 arrivals charged with the stall", open.Timeline)
	}
	if got := time.Duration(open.Timeline[1].P50Ns); got < 300*time.Millisecond {
		t.Fatalf("open loop stall-window p50 = %v, want ≥300ms: most of its ~100 arrivals are slow", got)
	}
}
