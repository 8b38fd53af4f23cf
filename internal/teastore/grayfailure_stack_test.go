package teastore

import (
	"context"
	"testing"
	"time"
)

// TestDrainReplicaTargetsChosenReplica: DrainReplica retires exactly the
// replica named by URL — not the newest — and refuses to drain the last
// one. This is the replacement primitive the autoscale reconciler drives
// when it swaps out a gray-failing replica.
func TestDrainReplicaTargetsChosenReplica(t *testing.T) {
	st := startReplicatedStack(t, map[string]int{"image": 3}, ResilienceConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	urls := st.ReplicaURLs("image")
	if len(urls) != 3 {
		t.Fatalf("boot gave %d image replicas, want 3", len(urls))
	}
	victim := urls[0] // the oldest — ScaleDown could never remove this one
	if err := st.DrainReplica(ctx, "image", victim); err != nil {
		t.Fatalf("DrainReplica(%s): %v", victim, err)
	}
	for _, u := range st.ReplicaURLs("image") {
		if u == victim {
			t.Fatalf("drained replica %s still listed in ReplicaURLs", victim)
		}
	}
	if got := len(st.ReplicaURLs("image")); got != 2 {
		t.Fatalf("%d image replicas after drain, want 2", got)
	}

	if err := st.DrainReplica(ctx, "image", "http://192.0.2.1:1"); err == nil {
		t.Fatal("DrainReplica accepted an unknown URL")
	}
	if err := st.DrainReplica(ctx, "webui", st.WebUIURL); err == nil {
		t.Fatal("DrainReplica removed the last webui replica")
	}
}

// TestKillReplicaLeavesLeaseAndServesViaSibling: KillReplica models a
// crash — the dead replica's registry lease lingers (no deregistration)
// while the stack stops tracking it, and callers keep succeeding via
// the surviving sibling through retries and failover.
func TestKillReplicaLeavesLeaseAndServesViaSibling(t *testing.T) {
	st := startReplicatedStack(t, map[string]int{"image": 2}, ResilienceConfig{})

	if err := st.KillReplica("image", 0); err != nil {
		t.Fatalf("KillReplica: %v", err)
	}
	if got := len(st.ReplicaURLs("image")); got != 1 {
		t.Fatalf("stack tracks %d image replicas after kill, want 1", got)
	}
	// A crash leaves no one to deregister: the registry still advertises
	// the corpse until its lease expires.
	if got := st.Registry().Lookup("image"); len(got) != 2 {
		t.Fatalf("registry lists %d image replicas right after the crash, want the stale 2: %v", len(got), got)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("deliberate kill surfaced as a fatal stack error: %v", err)
	}

	// Traffic keeps flowing: stale picks of the dead address fail the
	// connection and fail over to the survivor.
	c := balancedClient(st, 2*time.Second)
	for i := 0; i < 20; i++ {
		if _, err := c.GetBytes(context.Background(), imageTarget(i), nil); err != nil {
			t.Fatalf("balanced image fetch %d failed after crash: %v", i, err)
		}
	}

	if err := st.KillReplica("image", 5); err == nil {
		t.Fatal("KillReplica accepted an out-of-range index")
	}
}
