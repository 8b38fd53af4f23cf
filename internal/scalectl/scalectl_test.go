package scalectl

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpkit"
	"repro/internal/metrics"
)

// fakeInstance is one scripted replica: a real HTTP server whose
// /metrics.json reflects whatever counters the test sets.
type fakeInstance struct {
	mu   sync.Mutex
	snap httpkit.MetricsSnapshot
	down bool
	srv  *httptest.Server
}

func newFakeInstance(t *testing.T, service string) *fakeInstance {
	t.Helper()
	f := &fakeInstance{}
	f.snap.Service = service
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics.json" {
			http.NotFound(w, r)
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.down {
			http.Error(w, "metrics unavailable", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(f.snap)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// set replaces the instance's scripted counters.
func (f *fakeInstance) set(mutate func(*httpkit.MetricsSnapshot)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mutate(&f.snap)
}

// setDown toggles whether the replica serves /metrics.json at all,
// modelling an instance that stops answering scrapes mid-tick while its
// process stays registered.
func (f *fakeInstance) setDown(down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = down
}

// fakeTarget is a scriptable Target whose replicas are fakeInstances.
type fakeTarget struct {
	t *testing.T

	mu        sync.Mutex
	replicas  map[string][]*fakeInstance
	startErr  error
	downErr   error
	starts    map[string]int
	downs     map[string]int
	downHook  func()
	startHook func(service string) // runs under the lock, after the append
}

func newFakeTarget(t *testing.T) *fakeTarget {
	return &fakeTarget{
		t:        t,
		replicas: map[string][]*fakeInstance{},
		starts:   map[string]int{},
		downs:    map[string]int{},
	}
}

func (f *fakeTarget) add(service string) *fakeInstance {
	inst := newFakeInstance(f.t, service)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replicas[service] = append(f.replicas[service], inst)
	return inst
}

func (f *fakeTarget) ServiceNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.replicas))
	for name := range f.replicas {
		out = append(out, name)
	}
	return out
}

func (f *fakeTarget) ReplicaURLs(service string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.replicas[service]))
	for _, inst := range f.replicas[service] {
		out = append(out, inst.srv.URL)
	}
	return out
}

func (f *fakeTarget) StartReplica(service string) error {
	f.mu.Lock()
	if err := f.startErr; err != nil {
		f.mu.Unlock()
		return err
	}
	f.starts[service]++
	hook := f.startHook
	f.mu.Unlock()
	f.add(service)
	if hook != nil {
		hook(service)
	}
	return nil
}

func (f *fakeTarget) ScaleDown(ctx context.Context, service string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.downErr != nil {
		return f.downErr
	}
	n := len(f.replicas[service])
	if n <= 1 {
		return fmt.Errorf("fake: refusing to stop the last %s replica", service)
	}
	f.replicas[service] = f.replicas[service][:n-1]
	f.downs[service]++
	if f.downHook != nil {
		f.downHook()
	}
	return nil
}

// saturate scripts an instance to look overloaded: deep in-flight queue.
func saturate(inst *fakeInstance) {
	inst.set(func(s *httpkit.MetricsSnapshot) {
		s.Requests += 500
		s.Resilience.Inflight = 64
	})
}

// idle scripts an instance to look bored.
func idle(inst *fakeInstance) {
	inst.set(func(s *httpkit.MetricsSnapshot) {
		s.Resilience.Inflight = 0
	})
}

func newTestController(t *testing.T, target Target, cfg Config) *Controller {
	t.Helper()
	ctl, err := New(target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func TestNewRejectsBadConfig(t *testing.T) {
	ft := newFakeTarget(t)
	if _, err := New(ft, Config{}); err == nil {
		t.Fatal("empty Services accepted")
	}
	if _, err := New(ft, Config{Services: map[string]Bounds{"image": {Min: 0, Max: 2}}}); err == nil {
		t.Fatal("min 0 accepted")
	}
	if _, err := New(ft, Config{Services: map[string]Bounds{"image": {Min: 3, Max: 2}}}); err == nil {
		t.Fatal("max < min accepted")
	}
}

// TestScaleUpNeedsStableSaturation: one saturated tick must not add a
// replica; UpStableTicks consecutive ones must.
func TestScaleUpNeedsStableSaturation(t *testing.T) {
	ft := newFakeTarget(t)
	inst := ft.add("image")
	ctl := newTestController(t, ft, Config{
		Services:      map[string]Bounds{"image": {Min: 1, Max: 3}},
		UpStableTicks: 2,
		InflightHigh:  32,
	})
	ctx := context.Background()

	saturate(inst)
	ctl.Tick(ctx)
	if got := ft.starts["image"]; got != 0 {
		t.Fatalf("scaled up after one saturated tick (starts=%d); hysteresis broken", got)
	}
	st := ctl.Status().Services[0]
	if st.LastDecision.Action != ActionHold {
		t.Fatalf("decision after one tick = %+v, want hold", st.LastDecision)
	}

	saturate(inst)
	ctl.Tick(ctx)
	if got := ft.starts["image"]; got != 1 {
		t.Fatalf("starts after two saturated ticks = %d, want 1", got)
	}
	st = ctl.Status().Services[0]
	if st.LastDecision.Action != ActionScaleUp {
		t.Fatalf("decision = %+v, want scale-up", st.LastDecision)
	}
	if st.Desired != 2 || st.UpEvents != 1 {
		t.Fatalf("status after scale-up = %+v, want desired 2, upEvents 1", st)
	}
}

// TestScaleUpRespectsMax: a saturated service at its Max bound holds.
func TestScaleUpRespectsMax(t *testing.T) {
	ft := newFakeTarget(t)
	inst := ft.add("image")
	ctl := newTestController(t, ft, Config{
		Services:      map[string]Bounds{"image": {Min: 1, Max: 1}},
		UpStableTicks: 1,
	})
	for i := 0; i < 4; i++ {
		saturate(inst)
		ctl.Tick(context.Background())
	}
	if got := ft.starts["image"]; got != 0 {
		t.Fatalf("scaled past Max: starts=%d", got)
	}
}

// TestScaleDownNeedsCooldownAndStability: an idle service shrinks only
// after DownStableTicks idle ticks AND the cooldown since the last scale
// event has passed, and never below Min.
func TestScaleDownNeedsCooldownAndStability(t *testing.T) {
	ft := newFakeTarget(t)
	ft.add("image")
	ft.add("image")
	ctl := newTestController(t, ft, Config{
		Services:        map[string]Bounds{"image": {Min: 1, Max: 3}},
		DownStableTicks: 2,
		DownCooldown:    200 * time.Millisecond,
	})
	ctx := context.Background()

	// Seed lastScale so the cooldown is in effect.
	ctl.mu.Lock()
	ctl.state["image"].lastScale = time.Now()
	ctl.mu.Unlock()

	for i := 0; i < 4; i++ {
		ctl.Tick(ctx)
	}
	if got := ft.downs["image"]; got != 0 {
		t.Fatalf("scaled down inside cooldown: downs=%d", got)
	}

	time.Sleep(250 * time.Millisecond)
	ctl.Tick(ctx)
	if got := ft.downs["image"]; got != 1 {
		t.Fatalf("downs after cooldown elapsed = %d, want 1", got)
	}
	st := ctl.Status().Services[0]
	if st.LastDecision.Action != ActionScaleDown || st.DownEvents != 1 {
		t.Fatalf("status = %+v, want scale-down with downEvents 1", st)
	}

	// Now at Min: further idle ticks must hold.
	ctl.mu.Lock()
	ctl.state["image"].lastScale = time.Time{}
	ctl.mu.Unlock()
	for i := 0; i < 4; i++ {
		ctl.Tick(ctx)
	}
	if got := ft.downs["image"]; got != 1 {
		t.Fatalf("scaled below Min: downs=%d", got)
	}
}

// TestBelowMinScalesUpImmediately: a service under its Min bound is
// repaired without waiting for saturation streaks.
func TestBelowMinScalesUpImmediately(t *testing.T) {
	ft := newFakeTarget(t)
	ft.add("image")
	ctl := newTestController(t, ft, Config{
		Services:      map[string]Bounds{"image": {Min: 2, Max: 3}},
		UpStableTicks: 5,
	})
	ctl.Tick(context.Background())
	if got := ft.starts["image"]; got != 1 {
		t.Fatalf("starts = %d, want immediate repair to Min", got)
	}
}

// TestSaturationClearsAfterScaleUp: the windowed signals must decay once
// load stops — a lifetime p99 would keep the score pinned high forever.
func TestSaturationClearsAfterScaleUp(t *testing.T) {
	ft := newFakeTarget(t)
	inst := ft.add("image")
	ctl := newTestController(t, ft, Config{
		Services:      map[string]Bounds{"image": {Min: 1, Max: 3}},
		UpStableTicks: 2,
		P99High:       100 * time.Millisecond,
	})
	ctx := context.Background()

	// Slow traffic: every sample in a 400ms bucket.
	slow := []metrics.Bucket{{Low: 400e6, High: 500e6, Count: 1000}}
	inst.set(func(s *httpkit.MetricsSnapshot) {
		s.Requests = 1000
		s.OverallBuckets = slow
	})
	ctl.Tick(ctx) // baseline scrape, no deltas yet
	inst.set(func(s *httpkit.MetricsSnapshot) {
		s.Requests = 2000
		s.OverallBuckets = []metrics.Bucket{{Low: 400e6, High: 500e6, Count: 2000}}
	})
	ctl.Tick(ctx)
	if score := ctl.Status().Services[0].Score; score < 1 {
		t.Fatalf("score with windowed p99 400ms against P99High 100ms = %.2f, want ≥ 1", score)
	}

	// Traffic stops: counters freeze, so deltas go to zero and the score
	// must fall even though the lifetime histogram still says p99=400ms.
	ctl.Tick(ctx)
	if score := ctl.Status().Services[0].Score; score != 0 {
		t.Fatalf("score after traffic stopped = %.2f, want 0 (windowed signals must decay)", score)
	}
}

// TestShedFractionTriggersScaleUp: shedding is the crispest overload
// signal; a shed fraction past ShedHigh must saturate the score.
func TestShedFractionTriggersScaleUp(t *testing.T) {
	ft := newFakeTarget(t)
	inst := ft.add("image")
	ctl := newTestController(t, ft, Config{
		Services:      map[string]Bounds{"image": {Min: 1, Max: 2}},
		UpStableTicks: 1,
		ShedHigh:      0.05,
	})
	ctx := context.Background()
	ctl.Tick(ctx) // baseline
	inst.set(func(s *httpkit.MetricsSnapshot) {
		s.Requests += 100
		s.Resilience.Shed += 50
	})
	ctl.Tick(ctx)
	if got := ft.starts["image"]; got != 1 {
		t.Fatalf("starts = %d, want 1 after 50%% shed window", got)
	}
	reason := ctl.Status().Services[0].LastDecision.Reason
	if !strings.Contains(reason, "shed") {
		t.Fatalf("scale-up reason %q does not mention shedding", reason)
	}
}

// TestScrapeFailureHolds: when no replica answers /metrics.json the
// reconciler is blind and must hold rather than act on a zero score.
func TestScrapeFailureHolds(t *testing.T) {
	ft := newFakeTarget(t)
	inst := ft.add("image")
	ft.add("image")
	ctl := newTestController(t, ft, Config{
		Services:        map[string]Bounds{"image": {Min: 1, Max: 3}},
		DownStableTicks: 1,
		DownCooldown:    time.Nanosecond,
		ScrapeTimeout:   500 * time.Millisecond,
	})
	// Kill both fake servers' listeners (keep them in the replica list).
	ft.mu.Lock()
	for _, i := range ft.replicas["image"] {
		i.srv.Close()
	}
	ft.mu.Unlock()
	_ = inst

	for i := 0; i < 3; i++ {
		ctl.Tick(context.Background())
	}
	if got := ft.downs["image"]; got != 0 {
		t.Fatalf("scaled down on blind data: downs=%d", got)
	}
	st := ctl.Status().Services[0]
	if st.LastDecision.Action != ActionHold || !strings.Contains(st.LastDecision.Reason, "scrape") {
		t.Fatalf("decision = %+v, want hold on scrape failure", st.LastDecision)
	}
}

// TestStatusEndpointAndGauges: the HTTP surface mirrors Status().
func TestStatusEndpointAndGauges(t *testing.T) {
	ft := newFakeTarget(t)
	ft.add("image")
	ft.add("webui")
	ctl := newTestController(t, ft, Config{Services: map[string]Bounds{
		"image": {Min: 1, Max: 4},
		"webui": {Min: 1, Max: 2},
	}})
	ctl.Tick(context.Background())

	srv := httptest.NewServer(ctl.Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Services) != 2 || status.Services[0].Service != "image" {
		t.Fatalf("status = %+v, want image then webui", status.Services)
	}
	if status.Ticks != 1 {
		t.Fatalf("ticks = %d, want 1", status.Ticks)
	}
	if a := status.Services[0].Actual; a != 1 {
		t.Fatalf("image actual = %d, want 1", a)
	}

	gauges := ctl.Gauges()
	want := map[string]bool{}
	for _, g := range gauges {
		want[g.Name+"/"+g.Labels["service"]] = true
	}
	for _, key := range []string{
		"teastore_replicas_desired/image", "teastore_replicas_actual/image",
		"teastore_replicas_desired/webui", "teastore_saturation_score/webui",
	} {
		if !want[key] {
			t.Fatalf("gauges missing %s: %+v", key, gauges)
		}
	}
}

// TestRunLoopScalesUnderScript: end-to-end through Run — a saturated
// service gains a replica, then sheds it after load stops and the
// cooldown passes. Also exercises concurrent Status/Gauges readers for
// the race detector.
func TestRunLoopScalesUnderScript(t *testing.T) {
	ft := newFakeTarget(t)
	inst := ft.add("image")
	keepSaturated := make(chan struct{})
	saturatorDone := make(chan struct{})
	go func() {
		defer close(saturatorDone)
		for {
			select {
			case <-keepSaturated:
				return
			case <-time.After(5 * time.Millisecond):
				saturate(inst)
			}
		}
	}()

	ctl := newTestController(t, ft, Config{
		Services:        map[string]Bounds{"image": {Min: 1, Max: 2}},
		Interval:        20 * time.Millisecond,
		UpStableTicks:   2,
		DownStableTicks: 2,
		DownCooldown:    100 * time.Millisecond,
	})
	stop := ctl.Start()
	defer stop()

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 50; i++ {
			_ = ctl.Status()
			_ = ctl.Gauges()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	waitFor(t, 5*time.Second, func() bool { return len(ft.ReplicaURLs("image")) == 2 },
		"service never scaled to 2 under saturation")

	// Wait for the saturating goroutine to exit: a saturate() it was
	// already running would otherwise land after idle() and pin the
	// instance at full load.
	close(keepSaturated)
	<-saturatorDone
	idle(inst)
	ft.mu.Lock()
	for _, i := range ft.replicas["image"] {
		i.set(func(s *httpkit.MetricsSnapshot) { s.Resilience.Inflight = 0 })
	}
	ft.mu.Unlock()

	waitFor(t, 5*time.Second, func() bool { return len(ft.ReplicaURLs("image")) == 1 },
		"service never scaled back to 1 after load stopped")
	<-readerDone
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWindowedP99 exercises the delta-percentile math directly.
func TestWindowedP99(t *testing.T) {
	prev := []map[int64]int64{{1000: 100, 5000: 10}}
	cur := []map[int64]int64{{1000: 200, 5000: 10}}
	// Window: 100 samples all in the 1000ns bucket.
	if got := windowedP99(prev, cur); got != 1000 {
		t.Fatalf("windowedP99 = %v, want 1000ns", got)
	}
	// No deltas → 0.
	if got := windowedP99(cur, cur); got != 0 {
		t.Fatalf("windowedP99 with frozen counters = %v, want 0", got)
	}
	// 99 fast + 1 slow in the window: p99 rank (ceil(0.99*100)=99) lands
	// in the fast bucket; 2 slow of 100 lands in the slow bucket.
	prev = []map[int64]int64{{1000: 0, 9000: 0}}
	cur = []map[int64]int64{{1000: 99, 9000: 1}}
	if got := windowedP99(prev, cur); got != 1000 {
		t.Fatalf("windowedP99(99 fast, 1 slow) = %v, want 1000ns", got)
	}
	cur = []map[int64]int64{{1000: 98, 9000: 2}}
	if got := windowedP99(prev, cur); got != 9000 {
		t.Fatalf("windowedP99(98 fast, 2 slow) = %v, want 9000ns", got)
	}
}
