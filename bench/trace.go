package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/httpkit"
)

// Spans are recorded by the benchmark, from its own files: one around each
// traced page, one per server hop the stack reports for that page under
// /trace/{id}, one around each timed batch of a layer probe. They stay in
// memory and are written out when the run ends.

// span is one timed interval. Parent is the ID of the span that caused it,
// 0 for a root; spans of one request share Trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// spanLog collects spans; probes add to it from several goroutines.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(parent int, trace, name string, start, end time.Time) span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := span{ID: len(l.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()}
	l.spans = append(l.spans, s)
	return s
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children (the
// parallel image fetches of one page) are counted once, and a child is
// clipped to its parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// linkServerSpans files the server spans of one trace under the page span
// that caused them and returns them as filed. The stack's spans carry only
// a fan-out depth, so a hop's parent is the innermost span one level up
// whose interval contains it (exact on one connection); the page span
// adopts whatever has none.
func linkServerSpans(log *spanLog, pageID int, trace string, hops []httpkit.Span) []span {
	sort.Slice(hops, func(i, j int) bool {
		if hops[i].Depth != hops[j].Depth {
			return hops[i].Depth < hops[j].Depth
		}
		return hops[i].Start.Before(hops[j].Start)
	})
	filed := make([]span, len(hops))
	for i, h := range hops {
		parent, best := pageID, -1
		for j := 0; j < i; j++ { // shallower hops sort first
			if hops[j].Depth == h.Depth-1 && hops[j].Contains(h) &&
				(best < 0 || hops[j].Start.After(hops[best].Start)) {
				parent, best = filed[j].ID, j
			}
		}
		filed[i] = log.add(parent, trace, h.Service+" "+h.Route, h.Start, h.End())
	}
	return filed
}

// traceEvery is how many traced pages share one fetch of server spans:
// often enough to sample every page kind, rarely enough that the fetches
// finish before the services' 512-trace buffers roll over.
const traceEvery = 8

// tracer names the traced pages of a single-connection closed loop, wraps
// each in a span, and pulls the server-side spans of every traceEvery-th.
type tracer struct {
	log    *spanLog
	st     *stack
	prefix string

	fetched int
	gap     time.Duration // Σ page span − webui server span
	self    time.Duration // Σ webui server span self time
}

func (t *tracer) id(seq int) string { return fmt.Sprintf("%s%06d", t.prefix, seq) }

func (t *tracer) saw(ctx context.Context, seq int, o outcome) {
	trace := t.id(seq)
	page := t.log.add(0, trace, "page "+kindNames[o.kind], o.start, o.end)
	if seq%traceEvery != 0 || o.err != "" {
		return
	}
	var hops []httpkit.Span
	for _, in := range t.st.instances {
		var got struct {
			Spans []httpkit.Span `json:"spans"`
		}
		// A service the page never reached answers 404; that is not an error.
		if err := getJSON(ctx, in.URL+"/trace/"+trace, &got); err == nil {
			hops = append(hops, got.Spans...)
		}
	}
	filed := linkServerSpans(t.log, page.ID, trace, hops)
	if len(filed) == 0 || filed[0].Parent != page.ID {
		return
	}
	webui := filed[0] // the only depth-0 hop of a page
	t.fetched++
	t.gap += time.Duration((page.End - page.Start) - (webui.End - webui.Start))
	t.self += selfTimes(filed)[webui.ID]
}
