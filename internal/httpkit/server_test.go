package httpkit

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestNewServerBadAddress(t *testing.T) {
	if _, err := NewServer("x", "256.0.0.1:99999", http.NewServeMux()); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestNewServerPortCollision(t *testing.T) {
	a, err := NewServer("a", "127.0.0.1:0", http.NewServeMux())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Shutdown(t.Context()) }()
	if _, err := NewServer("b", a.Addr(), http.NewServeMux()); err == nil {
		t.Fatal("port collision accepted")
	}
}

// TestInflightCountedWithoutShedding: the in-flight gauge must track
// running requests even when no admission limit is set — graceful drains
// and the autoscaler's saturation score depend on it.
func TestInflightCountedWithoutShedding(t *testing.T) {
	mux, started, release := blockingMux()
	s := startTestServer(t, mux)
	// No SetMaxInflight: shedding disabled, gauge still live.

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(s.URL() + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	if got := s.Inflight(); got != 1 {
		t.Fatalf("Inflight() = %d with one request parked, want 1", got)
	}
	close(release)
	<-done
	deadline := time.Now().Add(2 * time.Second)
	for s.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Inflight() stuck at %d after the request finished", s.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExtraMetricsGauges: gauges installed via SetExtraMetrics show up in
// both the Prometheus text exposition and /metrics.json.
func TestExtraMetricsGauges(t *testing.T) {
	s := startTestServer(t, http.NewServeMux())
	s.SetExtraMetrics(func() []Gauge {
		return []Gauge{
			{Name: "teastore_replicas_desired", Help: "Replicas the reconciler wants.",
				Labels: map[string]string{"service": "image"}, Value: 2},
			{Name: "teastore_replicas_actual", Help: "Replicas currently live.",
				Labels: map[string]string{"service": "image"}, Value: 1},
		}
	})

	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`teastore_replicas_desired{service="image"} 2`,
		`teastore_replicas_actual{service="image"} 1`,
		"# TYPE teastore_replicas_desired gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, text)
		}
	}

	snap := s.MetricsSnapshot()
	if len(snap.Gauges) != 2 {
		t.Fatalf("MetricsSnapshot carries %d gauges, want 2", len(snap.Gauges))
	}

	s.SetExtraMetrics(nil)
	if g := s.MetricsSnapshot().Gauges; len(g) != 0 {
		t.Fatalf("gauges survive removal: %+v", g)
	}
}
