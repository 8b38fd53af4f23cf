package httpkit

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

// blockingMux returns a mux whose /slow handler parks until release is
// closed, plus a started channel signalling the handler is running.
func blockingMux() (mux *http.ServeMux, started chan struct{}, release chan struct{}) {
	mux = http.NewServeMux()
	started = make(chan struct{}, 16)
	release = make(chan struct{})
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "1"})
	})
	return mux, started, release
}

// TestLoadSheddingBoundsInflight: above the in-flight limit the server
// answers 503 + Retry-After instead of queueing, and counts the shed.
func TestLoadSheddingBoundsInflight(t *testing.T) {
	mux, started, release := blockingMux()
	s := startTestServer(t, mux)
	s.SetMaxInflight(1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(s.URL() + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	if got := s.Inflight(); got != 1 {
		t.Fatalf("inflight = %d, want 1", got)
	}

	resp, err := http.Get(s.URL() + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed lacks Retry-After")
	}
	if n := s.resilienceSnapshot().Shed; n != 1 {
		t.Fatalf("Shed = %d, want 1", n)
	}

	close(release)
	wg.Wait()

	// The shed is visible in the metrics snapshot but, by design, not in
	// the latency histograms (a microsecond 503 would poison them).
	snap := s.MetricsSnapshot()
	if snap.Resilience.Shed != 1 {
		t.Fatalf("snapshot shed = %d", snap.Resilience.Shed)
	}
	if rs, ok := snap.Routes["GET /slow"]; !ok || rs.Count != 1 {
		t.Fatalf("histogram count = %+v, want only the served request", snap.Routes)
	}
}

// TestShedSparesObservability: a saturated server still answers its
// health and metrics endpoints.
func TestShedSparesObservability(t *testing.T) {
	mux, started, release := blockingMux()
	s := startTestServer(t, mux)
	s.SetMaxInflight(1)
	defer close(release)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(s.URL() + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	c := NewClient(2 * time.Second)
	for _, path := range []string{"/health", "/ready", "/metrics.json"} {
		if err := c.GetJSON(context.Background(), s.URL()+path, nil); err != nil {
			t.Fatalf("%s unavailable under saturation: %v", path, err)
		}
	}
	release <- struct{}{}
	wg.Wait()
}

// TestSheddingDisabledByDefault: without SetMaxInflight concurrent
// requests all get served.
func TestSheddingDisabledByDefault(t *testing.T) {
	mux, started, release := blockingMux()
	s := startTestServer(t, mux)

	const n = 4
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(s.URL() + "/slow")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d got %d", i, code)
		}
	}
	if n := s.resilienceSnapshot().Shed; n != 0 {
		t.Fatalf("Shed = %d", n)
	}
}
