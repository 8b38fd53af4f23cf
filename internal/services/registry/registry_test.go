package registry

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/httpkit"
)

func TestRegisterLookup(t *testing.T) {
	r := New(0)
	r.Register(Registration{Service: "auth", Address: "a:1"})
	r.Register(Registration{Service: "auth", Address: "a:2"})
	r.Register(Registration{Service: "webui", Address: "w:1"})
	if got := r.Lookup("auth"); !reflect.DeepEqual(got, []string{"a:1", "a:2"}) {
		t.Fatalf("Lookup = %v", got)
	}
	if got := r.Services(); !reflect.DeepEqual(got, []string{"auth", "webui"}) {
		t.Fatalf("Services = %v", got)
	}
	if got := r.Lookup("ghost"); len(got) != 0 {
		t.Fatalf("ghost lookup = %v", got)
	}
}

func TestTTLExpiry(t *testing.T) {
	r := New(5 * time.Second)
	now := time.Date(2026, 7, 5, 10, 0, 0, 0, time.UTC)
	r.now = func() time.Time { return now }

	r.Register(Registration{Service: "auth", Address: "a:1"})
	now = now.Add(3 * time.Second)
	if len(r.Lookup("auth")) != 1 {
		t.Fatal("fresh registration missing")
	}
	now = now.Add(3 * time.Second)
	if len(r.Lookup("auth")) != 0 {
		t.Fatal("expired registration still visible")
	}
	// Heartbeat of expired-but-not-swept entry revives it (entry exists).
	if !r.Heartbeat(Registration{Service: "auth", Address: "a:1"}) {
		t.Fatal("heartbeat of unswept entry failed")
	}
	if len(r.Lookup("auth")) != 1 {
		t.Fatal("heartbeat did not refresh")
	}
	// After sweep + expiry the heartbeat fails.
	now = now.Add(10 * time.Second)
	if removed := r.Sweep(); removed != 1 {
		t.Fatalf("Sweep removed %d, want 1", removed)
	}
	if r.Heartbeat(Registration{Service: "auth", Address: "a:1"}) {
		t.Fatal("heartbeat of swept entry succeeded")
	}
}

func TestDeregister(t *testing.T) {
	r := New(0)
	reg := Registration{Service: "auth", Address: "a:1"}
	r.Register(reg)
	r.Deregister(reg)
	if len(r.Lookup("auth")) != 0 {
		t.Fatal("deregistered instance still listed")
	}
	// Deregistering the unknown is a no-op.
	r.Deregister(Registration{Service: "nope", Address: "x"})
}

func TestSweeperGoroutine(t *testing.T) {
	r := New(10 * time.Millisecond)
	r.Register(Registration{Service: "auth", Address: "a:1"})
	stop := r.StartSweeper(5 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(r.Lookup("auth")) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("sweeper never expired the registration")
}

func TestHTTPAPI(t *testing.T) {
	r := New(time.Minute)
	srv := httptest.NewServer(r.Mux())
	defer srv.Close()
	c := NewClient(srv.URL, httpkit.NewClient(2*time.Second))
	ctx := context.Background()

	reg := Registration{Service: "persistence", Address: "p:9"}
	if err := c.Register(ctx, reg); err != nil {
		t.Fatal(err)
	}
	addrs, err := c.Lookup(ctx, "persistence")
	if err != nil || !reflect.DeepEqual(addrs, []string{"p:9"}) {
		t.Fatalf("Lookup = %v, %v", addrs, err)
	}
	ok, err := c.Heartbeat(ctx, reg)
	if err != nil || !ok {
		t.Fatalf("Heartbeat = %v, %v", ok, err)
	}
	ok, err = c.Heartbeat(ctx, Registration{Service: "persistence", Address: "ghost:1"})
	if err != nil || ok {
		t.Fatalf("ghost heartbeat = %v, %v (want false, nil)", ok, err)
	}
	if err := c.Deregister(ctx, reg); err != nil {
		t.Fatal(err)
	}
	addrs, _ = c.Lookup(ctx, "persistence")
	if len(addrs) != 0 {
		t.Fatalf("after deregister Lookup = %v", addrs)
	}
}

func TestHTTPValidation(t *testing.T) {
	r := New(time.Minute)
	srv := httptest.NewServer(r.Mux())
	defer srv.Close()
	c := httpkit.NewClient(2 * time.Second)
	ctx := context.Background()
	err := c.PostJSON(ctx, srv.URL+"/register", map[string]string{"service": ""}, nil)
	if !httpkit.IsStatus(err, 400) {
		t.Fatalf("empty registration err = %v", err)
	}
	var svcs []string
	if err := c.GetJSON(ctx, srv.URL+"/services", &svcs); err != nil {
		t.Fatal(err)
	}
	if len(svcs) != 0 {
		t.Fatalf("services = %v", svcs)
	}
}

// TestShardLabelRoundTrip: a registration's shard is stored verbatim,
// served by LookupInstances (-1 when unsharded), and survives the stack's
// heartbeats, which carry no shard and only refresh liveness.
func TestShardLabelRoundTrip(t *testing.T) {
	r := New(0)
	shard := 1
	r.Register(Registration{Service: "persistence", Address: "p:1", Shard: &shard})
	r.Register(Registration{Service: "persistence", Address: "p:2"})

	got := r.LookupInstances("persistence")
	if len(got) != 2 {
		t.Fatalf("LookupInstances = %v", got)
	}
	if got[0].Shard != 1 || got[1].Shard != -1 {
		t.Fatalf("shards = [%d %d], want [1 -1]", got[0].Shard, got[1].Shard)
	}

	if !r.Heartbeat(Registration{Service: "persistence", Address: "p:1"}) {
		t.Fatal("heartbeat failed")
	}
	if got := r.LookupInstances("persistence")[0].Shard; got != 1 {
		t.Fatalf("shard after heartbeat = %d", got)
	}
}
