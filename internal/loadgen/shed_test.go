package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// shedWorker builds a session aimed at the given base URL.
func shedWorker(t *testing.T, base string) *session {
	t.Helper()
	w, err := newSession(Config{WebUIURL: base, ThinkScale: 0.01, CatalogUsers: 1},
		catalog{CategoryIDs: []int64{1}, ProductIDs: []int64{1}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkerHonoursRetryAfter: a 503 with Retry-After is a shed, not an
// error — the worker backs off, re-issues, and records both outcomes.
func TestWorkerHonoursRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.05")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	w := shedWorker(t, srv.URL)
	start := time.Now()
	if err := w.get(context.Background(), "/"); err != nil {
		t.Fatalf("shed request reported error: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("Retry-After not honoured: re-issued after %v", elapsed)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
	if w.shed != 1 || w.retried != 1 {
		t.Fatalf("shed/retried = %d/%d, want 1/1", w.shed, w.retried)
	}
}

// TestWorkerShedBudgetSurvivesIdempotentRetries: sheds and failures draw
// on separate budgets. A GET answered 500, 500, then shed must still be
// backed off and re-issued — the two idempotent retries it already spent
// are not the shed budget — so it ends a success with one shed on the
// books, not a failed idempotent request.
func TestWorkerShedBudgetSurvivesIdempotentRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1, 2:
			w.WriteHeader(http.StatusInternalServerError)
		case 3:
			w.Header().Set("Retry-After", "0.01")
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer srv.Close()

	w := idemWorker(t, srv.URL, nil)
	if err := w.get(context.Background(), "/"); err != nil {
		t.Fatalf("shed after two retried failures reported error (an idempotent failure): %v", err)
	}
	if calls.Load() != 4 {
		t.Fatalf("server saw %d calls, want 4", calls.Load())
	}
	if w.shed != 1 || w.retried != 1 || w.idemRetried != 2 {
		t.Fatalf("shed/retried/idemRetried = %d/%d/%d, want 1/1/2", w.shed, w.retried, w.idemRetried)
	}
}

// TestWorkerGivesUpAfterShedBudget: persistent shedding stops being
// retried after maxShedRetries and surfaces as an error.
func TestWorkerGivesUpAfterShedBudget(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0.01")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	w := shedWorker(t, srv.URL)
	if err := w.get(context.Background(), "/"); err == nil {
		t.Fatal("endless shedding reported success")
	}
	if got := calls.Load(); got != maxShedRetries+1 {
		t.Fatalf("server saw %d calls, want %d", got, maxShedRetries+1)
	}
}

// TestWorker503WithoutRetryAfterIsAnError: a bare 503 has no shed
// semantics and must not trigger the backoff loop.
func TestWorker503WithoutRetryAfterIsAnError(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	w := shedWorker(t, srv.URL)
	if err := w.get(context.Background(), "/"); err == nil {
		t.Fatal("bare 503 reported success")
	}
	if calls.Load() != 1 {
		t.Fatalf("bare 503 retried: %d calls", calls.Load())
	}
	if w.shed != 0 || w.retried != 0 {
		t.Fatalf("bare 503 counted as shed: %d/%d", w.shed, w.retried)
	}
}

// TestWorkerSkipsShedRetryForUnreplayableBody: a request whose body
// cannot be re-materialized (Body set, GetBody nil) must not be re-issued
// on a shed — the first attempt consumed the body, so a retry would send
// an empty POST.
func TestWorkerSkipsShedRetryForUnreplayableBody(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0.01")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	w := shedWorker(t, srv.URL)
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
		srv.URL+"/", io.NopCloser(strings.NewReader("payload")))
	if err != nil {
		t.Fatal(err)
	}
	// NewRequest cannot snapshot an opaque ReadCloser: GetBody stays nil.
	if req.GetBody != nil {
		t.Fatal("test premise broken: GetBody set for opaque body")
	}
	if err := w.do(req); err == nil {
		t.Fatal("unreplayable shed reported success")
	}
	if calls.Load() != 1 {
		t.Fatalf("unreplayable request re-issued: %d calls", calls.Load())
	}
	if w.shed != 0 || w.retried != 0 {
		t.Fatalf("unreplayable shed counted as retry: %d/%d", w.shed, w.retried)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"1", time.Second, true},
		{"0.5", 500 * time.Millisecond, true},
		{" 2 ", 2 * time.Second, true},
		{"0", 0, true},
		{"-1", 0, false},
		{"Wed, 21 Oct 2026 07:28:00 GMT", 0, false},
		{"nonsense", 0, false},
		{"3600", maxRetryAfter, true}, // capped
	}
	for _, c := range cases {
		got, ok := parseRetryAfter(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}
