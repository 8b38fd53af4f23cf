package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpkit"
)

// idemWorker builds a session with idempotent retries on.
func idemWorker(t *testing.T, base string, lb *httpkit.Balancer) *session {
	t.Helper()
	w, err := newSession(Config{WebUIURL: base, ThinkScale: 0.01, CatalogUsers: 1, RetryIdempotent: true},
		catalog{CategoryIDs: []int64{1}, ProductIDs: []int64{1}}, lb, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkerRetriesFailedGET: a 500 on a GET is re-issued (bounded) when
// RetryIdempotent is on, and the eventual success counts no error.
func TestWorkerRetriesFailedGET(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	w := idemWorker(t, srv.URL, nil)
	if err := w.get(context.Background(), "/"); err != nil {
		t.Fatalf("retried GET still reported error: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
	if w.idemRetried != 1 {
		t.Fatalf("idemRetried = %d, want 1", w.idemRetried)
	}
}

// TestWorkerRetryRepicksReplica: the retry lands on a different replica
// when a pool is available — rescuing the request from a failing replica
// instead of banging on it.
func TestWorkerRetryRepicksReplica(t *testing.T) {
	var badCalls, goodCalls atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badCalls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		goodCalls.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer good.Close()
	// A registry stub listing only the good replica, so every re-pick
	// deterministically escapes the bad one.
	registry := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode([]string{strings.TrimPrefix(good.URL, "http://")})
	}))
	defer registry.Close()

	lb := newWebuiBalancer(registry.URL, bad.URL, false)
	w := idemWorker(t, bad.URL, lb)

	if err := w.get(context.Background(), "/"); err != nil {
		t.Fatalf("re-picked GET still reported error: %v", err)
	}
	if badCalls.Load() != 1 || goodCalls.Load() != 1 {
		t.Fatalf("bad/good calls = %d/%d, want 1/1", badCalls.Load(), goodCalls.Load())
	}
}

// TestRefusedConnectionDropsReplica: a replica that refuses connections
// while the registry still lists it (drained a moment ago, or crashed
// with its lease lingering) is dropped from the shared listing by the
// first session that hits it, so that session's retry — and every other
// session's next pick — lands on a live replica instead of drawing the
// corpse again.
func TestRefusedConnectionDropsReplica(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer good.Close()
	dead := httptest.NewServer(nil)
	dead.Close()
	registry := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode([]string{
			strings.TrimPrefix(dead.URL, "http://"), strings.TrimPrefix(good.URL, "http://")})
	}))
	defer registry.Close()

	lb := newWebuiBalancer(registry.URL, dead.URL, false)
	if _, err := lb.Stick(context.Background(), webuiService, ""); err != nil { // resolve the listing, as minting a session does
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w := idemWorker(t, dead.URL, lb)
		if err := w.get(context.Background(), "/"); err != nil {
			t.Fatalf("session %d: GET failed despite a live replica: %v", i, err)
		}
		if w.idemRetried != 1 {
			t.Fatalf("session %d: %d retries, want exactly 1 (the retry must not draw the dead replica)", i, w.idemRetried)
		}
	}
	if base, err := lb.Stick(context.Background(), webuiService, dead.URL); err != nil || base != good.URL {
		t.Fatalf("Stick(dead) = %q, %v; want the live replica %q", base, err, good.URL)
	}
}

// TestSessionsSpreadAcrossListedReplicas: every minted session lands on a
// fresh pick from the registry's listing, not on the configured WebUIURL
// — which is itself a listed replica, so a session that merely stuck to
// its default would pin the whole population to one replica and a
// replica added at runtime would never see traffic.
func TestSessionsSpreadAcrossListedReplicas(t *testing.T) {
	listed := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}
	registry := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(listed)
	}))
	defer registry.Close()

	cfg := Config{WebUIURL: "http://" + listed[0], RegistryURL: registry.URL, Users: 1, Duration: time.Second}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	f := newSessionFactory(cfg, catalog{CategoryIDs: []int64{1}, ProductIDs: []int64{1}})
	landed := map[string]int{}
	for i := 0; i < 60; i++ {
		s, err := f.New()
		if err != nil {
			t.Fatal(err)
		}
		landed[s.(*session).base]++
	}
	for _, addr := range listed {
		if landed["http://"+addr] == 0 {
			t.Fatalf("no session landed on %s: %v", addr, landed)
		}
	}
}

// TestWorkerNeverRetriesPOST: non-idempotent requests get exactly one
// attempt no matter what — a replayed checkout is a double order.
func TestWorkerNeverRetriesPOST(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	w := idemWorker(t, srv.URL, nil)
	if err := w.postForm(context.Background(), "/cart/checkout", nil); err == nil {
		t.Fatal("failed POST reported success")
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d POST attempts, want exactly 1", calls.Load())
	}
	if w.idemRetried != 0 {
		t.Fatalf("idemRetried = %d for a POST, want 0", w.idemRetried)
	}
}

// TestWorkerRetriesKeyedCheckout: a checkout POST carrying a client
// order ID IS replayed on failure — the key dedupes server-side, so the
// retry can only ever land the same order once — and every attempt
// carries the same key and body.
func TestWorkerRetriesKeyedCheckout(t *testing.T) {
	var calls atomic.Int64
	var keys []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.ParseForm(); err != nil {
			t.Errorf("parse form: %v", err)
		}
		keys = append(keys, r.PostFormValue("clientOrderId"))
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	w := idemWorker(t, srv.URL, nil)
	err := w.postKeyedForm(context.Background(), "/cart/checkout",
		url.Values{"clientOrderId": {"key-123"}})
	if err != nil {
		t.Fatalf("retried keyed checkout still reported error: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d attempts, want 2", calls.Load())
	}
	if w.checkoutRetried != 1 || w.idemRetried != 0 {
		t.Fatalf("checkoutRetried/idemRetried = %d/%d, want 1/0", w.checkoutRetried, w.idemRetried)
	}
	for _, k := range keys {
		if k != "key-123" {
			t.Fatalf("attempt keys = %v, want every attempt to carry key-123", keys)
		}
	}
}

// TestTimelineBucketsBySecond: records land in their request-start
// windows with per-window percentiles, errors, and sheds.
func TestTimelineBucketsBySecond(t *testing.T) {
	tl := &timeline{}
	start := time.Now()
	tl.begin(start)

	tl.record(start.Add(100*time.Millisecond), int64(10*time.Millisecond), false)
	tl.record(start.Add(200*time.Millisecond), int64(20*time.Millisecond), false)
	tl.record(start.Add(300*time.Millisecond), 0, true)
	tl.recordShed(start.Add(400 * time.Millisecond))
	tl.record(start.Add(2500*time.Millisecond), int64(80*time.Millisecond), false)
	tl.record(start.Add(-time.Second), int64(time.Millisecond), false) // pre-start: dropped

	ws := tl.windows()
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3", len(ws))
	}
	w0 := ws[0]
	if w0.Requests != 3 || w0.Errors != 1 || w0.Shed != 1 {
		t.Fatalf("window 0 = %+v, want 3 requests, 1 error, 1 shed", w0)
	}
	if w0.P99() < 10*time.Millisecond || w0.P99() > 40*time.Millisecond {
		t.Fatalf("window 0 p99 = %v, want ≈20ms", w0.P99())
	}
	if ws[1].Requests != 0 {
		t.Fatalf("quiet window 1 = %+v, want empty", ws[1])
	}
	if ws[2].Requests != 1 || ws[2].P99() < 80*time.Millisecond {
		t.Fatalf("window 2 = %+v, want 1 request at ≈80ms", ws[2])
	}
}
