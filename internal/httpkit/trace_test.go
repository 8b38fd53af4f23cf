package httpkit

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNormalizeRoute(t *testing.T) {
	cases := []struct {
		method, path, want string
	}{
		{"GET", "/", "GET /"},
		{"GET", "", "GET /"},
		{"GET", "/categories", "GET /categories"},
		{"GET", "/categories/7", "GET /categories/{id}"},
		{"GET", "/categories/7/products", "GET /categories/{id}/products"},
		{"GET", "/product/123", "GET /product/{id}"},
		{"GET", "/user-by-email/user1@teastore.test", "GET /user-by-email/{email}"},
		{"GET", "/user-by-email/user1%40teastore.test", "GET /user-by-email/{email}"},
		{"POST", "/cart/add", "POST /cart/add"},
		{"GET", "/images", "GET /images"},
	}
	for _, c := range cases {
		if got := normalizeRoute(c.method, c.path); got != c.want {
			t.Errorf("normalizeRoute(%s, %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

// TestTracePropagation chains two servers: A's handler calls B with the
// request context, and both must record spans under one trace ID with
// incrementing depth.
func TestTracePropagation(t *testing.T) {
	c := NewClient(2 * time.Second)

	muxB := http.NewServeMux()
	muxB.HandleFunc("GET /leaf", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "leaf"})
	})
	b := startTestServer(t, muxB)

	muxA := http.NewServeMux()
	muxA.HandleFunc("GET /root", func(w http.ResponseWriter, r *http.Request) {
		if err := c.GetJSON(r.Context(), b.URL()+"/leaf", nil); err != nil {
			WriteError(w, http.StatusBadGateway, "%v", err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "root"})
	})
	a := startTestServer(t, muxA)

	resp, err := http.Get(a.URL() + "/root")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get(TraceIDHeader)
	if traceID == "" {
		t.Fatal("response lacks X-Trace-Id")
	}

	rootSpans := a.Spans(traceID)
	leafSpans := b.Spans(traceID)
	if len(rootSpans) != 1 || len(leafSpans) != 1 {
		t.Fatalf("spans: root=%d leaf=%d, want 1/1", len(rootSpans), len(leafSpans))
	}
	root, leaf := rootSpans[0], leafSpans[0]
	if root.Depth != 0 || leaf.Depth != 1 {
		t.Fatalf("depths: root=%d leaf=%d", root.Depth, leaf.Depth)
	}
	if root.Route != "GET /root" || leaf.Route != "GET /leaf" {
		t.Fatalf("routes: %q / %q", root.Route, leaf.Route)
	}
	if root.Status != 200 || leaf.Status != 200 {
		t.Fatalf("statuses: %d / %d", root.Status, leaf.Status)
	}
	if !root.Contains(leaf) {
		t.Fatalf("root span %v–%v does not contain leaf %v–%v",
			root.Start, root.End(), leaf.Start, leaf.End())
	}
}

// TestTraceAdoptsCallerID: a caller-supplied trace ID is kept, echoed,
// and used for the span.
func TestTraceAdoptsCallerID(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /x", func(w http.ResponseWriter, r *http.Request) {
		tc, ok := TraceFrom(r.Context())
		if !ok {
			WriteError(w, http.StatusInternalServerError, "no trace in context")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"id": tc.ID, "depth": tc.Depth})
	})
	s := startTestServer(t, mux)

	req, _ := http.NewRequest(http.MethodGet, s.URL()+"/x", nil)
	req.Header.Set(TraceIDHeader, "caller-chosen-id")
	req.Header.Set(TraceDepthHeader, "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Depth int    `json:"depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID != "caller-chosen-id" || out.Depth != 3 {
		t.Fatalf("adopted trace = %+v", out)
	}
	if resp.Header.Get(TraceIDHeader) != "caller-chosen-id" {
		t.Fatal("trace ID not echoed")
	}
	spans := s.Spans("caller-chosen-id")
	if len(spans) != 1 || spans[0].Depth != 3 {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestMetricsEndpoints drives a route, then checks /metrics (Prometheus
// text), /metrics.json, and /trace/{id}.
func TestMetricsEndpoints(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /work/{id}", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"ok": r.PathValue("id")})
	})
	s := startTestServer(t, mux)
	c := NewClient(2 * time.Second)

	var traceID string
	for i := 0; i < 5; i++ {
		resp, err := http.Get(s.URL() + "/work/7")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		traceID = resp.Header.Get(TraceIDHeader)
	}

	// Prometheus text.
	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`teastore_requests_total{service="test"}`,
		`# TYPE teastore_request_duration_seconds histogram`,
		`teastore_request_duration_seconds_bucket{service="test",route="GET /work/{id}",le="+Inf"} 5`,
		`teastore_request_duration_seconds_count{service="test",route="GET /work/{id}"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// JSON snapshot.
	var snap MetricsSnapshot
	if err := c.GetJSON(context.Background(), s.URL()+"/metrics.json", &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Service != "test" || snap.Routes["GET /work/{id}"].Count != 5 {
		t.Fatalf("metrics.json = %+v", snap)
	}
	if snap.Overall.Count != 5 {
		t.Fatalf("overall count = %d", snap.Overall.Count)
	}

	// Span dump.
	var dump struct {
		TraceID string `json:"traceId"`
		Spans   []Span `json:"spans"`
	}
	if err := c.GetJSON(context.Background(), s.URL()+"/trace/"+traceID, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) != 1 || dump.Spans[0].Route != "GET /work/{id}" {
		t.Fatalf("trace dump = %+v", dump)
	}
	// Unknown trace is a 404.
	err = c.GetJSON(context.Background(), s.URL()+"/trace/nope", nil)
	if !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown trace err = %v", err)
	}
}

// TestObservabilityRoutesNotObserved: the plumbing itself must not appear
// in histograms or span stores.
func TestObservabilityRoutesNotObserved(t *testing.T) {
	s := startTestServer(t, http.NewServeMux())
	c := NewClient(2 * time.Second)
	for _, path := range []string{"/health", "/ready", "/metrics", "/metrics.json"} {
		_ = c.GetJSON(context.Background(), s.URL()+path, nil)
	}
	if n := len(s.stats.frozen()); n != 0 {
		t.Fatalf("observability routes leaked into stats: %v", s.stats.frozen())
	}
}

// TestPanicRecordsErrorSpan: a panicking handler must still produce a 500
// span (and the Recover middleware still answers the client).
func TestPanicRecordsErrorSpan(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom2", func(w http.ResponseWriter, r *http.Request) {
		panic("observed kaboom")
	})
	s := startTestServer(t, mux)
	resp, err := http.Get(s.URL() + "/boom2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get(TraceIDHeader)
	spans := s.Spans(traceID)
	if len(spans) != 1 || spans[0].Status != http.StatusInternalServerError {
		t.Fatalf("panic spans = %+v", spans)
	}
}

// TestSpanStoreEviction: the store stays bounded under trace churn.
func TestSpanStoreEviction(t *testing.T) {
	st := newSpanStore()
	st.maxTraces = 8
	for i := 0; i < 100; i++ {
		st.add(Span{TraceID: string(rune('a'+i%26)) + string(rune('0'+i/26))})
	}
	if len(st.traces) > 8 || len(st.order) > 8 {
		t.Fatalf("store grew past cap: %d traces", len(st.traces))
	}
	if st.get("a0") != nil {
		t.Fatal("oldest trace survived eviction")
	}
}

// TestSpanStoreConcurrent exercises the store from many goroutines for
// the -race run.
func TestSpanStoreConcurrent(t *testing.T) {
	st := newSpanStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := string(rune('a' + (g+i)%16))
				st.add(Span{TraceID: id})
				_ = st.get(id)
			}
		}(g)
	}
	wg.Wait()
}
