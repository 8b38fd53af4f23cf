package main

import (
	"testing"
	"time"

	"repro/internal/httpkit"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 50},
		{ID: 3, Parent: 1, Start: 30, End: 70},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 35, End: 45},  // grandchild: not the root's business
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 30, 2: 40, 3: 30, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestServerSpansAreFiledByDepthAndContainment(t *testing.T) {
	t0 := time.Unix(1000, 0)
	hop := func(svc string, depth, fromMs, toMs int) httpkit.Span {
		return httpkit.Span{Service: svc, Route: "GET /x", Depth: depth,
			Start: t0.Add(time.Duration(fromMs) * time.Millisecond), Duration: time.Duration(toMs-fromMs) * time.Millisecond}
	}
	log := &spanLog{}
	page := log.add(0, "t1", "page product", t0, t0.Add(100*time.Millisecond))
	filed := linkServerSpans(log, page.ID, "t1", []httpkit.Span{
		hop("persistence", 2, 22, 28), // under auth
		hop("auth", 1, 20, 30),
		hop("webui", 0, 5, 95),
		hop("image", 1, 40, 60),
		hop("image", 1, 45, 65), // parallel fetch
	})
	byName := map[string][]span{}
	for _, s := range filed {
		byName[s.Name] = append(byName[s.Name], s)
	}
	webui, auth := byName["webui GET /x"][0], byName["auth GET /x"][0]
	if webui.Parent != page.ID {
		t.Errorf("webui span filed under %d, want the page span %d", webui.Parent, page.ID)
	}
	if auth.Parent != webui.ID {
		t.Errorf("auth span filed under %d, want webui %d", auth.Parent, webui.ID)
	}
	if got := byName["persistence GET /x"][0].Parent; got != auth.ID {
		t.Errorf("persistence span filed under %d, want auth %d", got, auth.ID)
	}
	for _, img := range byName["image GET /x"] {
		if img.Parent != webui.ID {
			t.Errorf("image span filed under %d, want webui %d", img.Parent, webui.ID)
		}
	}
	// webui: 90 ms minus auth (10) and the union of the two fetches (25).
	if got := selfTimes(filed)[webui.ID]; got != 55*time.Millisecond {
		t.Errorf("webui self time = %v, want 55ms", got)
	}
}
