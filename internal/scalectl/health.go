package scalectl

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
)

// ReplicaDrainer is an optional Target extension: drain and stop one
// specific replica identified by its base URL. Targets that implement it
// let the reconciler *replace* a gray-failing replica — start a fresh
// one, then gracefully retire the sick one — instead of only trimming
// the newest. teastore.Stack implements it; fakes that don't simply get
// no replacement behaviour.
type ReplicaDrainer interface {
	DrainReplica(ctx context.Context, service, url string) error
}

// minHealthWindow is how many requests a replica must have served inside
// one scrape window before its windowed p99 is judged against its peers;
// below it, a couple of unlucky samples would dominate the estimate.
const minHealthWindow = 5

// minP99Excess is the absolute windowed-p99 excess over the peer median a
// latency judgement additionally requires: on a fast pool a pure ratio
// trips on scheduling noise (5ms vs 16ms), and replacing a replica is far
// too expensive a response to noise.
const minP99Excess = 50 * time.Millisecond

// replicaWindow is one replica's windowed traffic view for a tick, the
// raw material of the health judgement.
type replicaWindow struct {
	url  string
	dReq int64
	p99  time.Duration
}

// ejectedByCallers scans every scraped instance's client-side balancer
// view and collects, per destination service, the replica addresses some
// caller currently holds ejected as an outlier. The reconciler trusts
// the data plane's verdict: callers watch every response, while the
// control plane only samples once per tick.
func ejectedByCallers(snaps map[string][]instanceSnap) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, list := range snaps {
		for _, is := range list {
			if !is.ok {
				continue
			}
			for dest, replicas := range is.snap.Resilience.Replicas {
				for addr, rc := range replicas {
					if rc.Ejected {
						if out[dest] == nil {
							out[dest] = map[string]bool{}
						}
						out[dest][addr] = true
					}
				}
			}
		}
	}
	return out
}

// checkHealth updates the per-replica health view from this tick's
// windows and returns the URL due for replacement, if any: a replica
// that has stayed unhealthy — caller-ejected or a windowed-p99 outlier
// against its peers — for ReplaceAfterTicks consecutive ticks, provided
// the per-service replacement cooldown has lapsed. Streak bookkeeping
// always runs so /status stays honest even when replacement is disabled
// or the target cannot drain by URL.
func (c *Controller) checkHealth(st *serviceState, windows []replicaWindow, ejected map[string]bool, now time.Time) (replaceURL, reason string) {
	unhealthy := map[string]string{}
	for _, w := range windows {
		if ejected[hostOf(w.url)] {
			unhealthy[w.url] = "ejected by caller balancers"
		}
	}

	// A replica is a latency outlier when its windowed p99 stands above a
	// multiple of the leave-one-out median of its peers — judged only
	// among replicas that saw real traffic this window, and against the
	// peers' median so one sick replica can't drag the baseline.
	var judged []replicaWindow
	for _, w := range windows {
		if w.dReq >= minHealthWindow && w.p99 > 0 {
			judged = append(judged, w)
		}
	}
	if len(judged) >= 2 {
		p99s := make([]float64, len(judged))
		for i, w := range judged {
			p99s[i] = float64(w.p99)
		}
		for i, w := range judged {
			base, out := metrics.PeerOutlier(p99s, i, c.cfg.OutlierP99Factor, float64(minP99Excess))
			if _, dup := unhealthy[w.url]; out && !dup {
				unhealthy[w.url] = fmt.Sprintf("windowed p99 %.0fms > %.1f× peer median %.0fms",
					p99s[i]/1e6, c.cfg.OutlierP99Factor, base/1e6)
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	live := map[string]bool{}
	for _, w := range windows {
		live[w.url] = true
	}
	for url := range st.health {
		if !live[url] {
			delete(st.health, url)
			delete(st.unhealthyStreak, url)
		}
	}
	worst := 0
	for _, w := range windows {
		why, bad := unhealthy[w.url]
		st.health[w.url] = !bad
		if !bad {
			delete(st.unhealthyStreak, w.url)
			continue
		}
		st.unhealthyStreak[w.url]++
		if s := st.unhealthyStreak[w.url]; s >= c.cfg.ReplaceAfterTicks && s > worst {
			worst = s
			replaceURL, reason = w.url, why
		}
	}
	if c.cfg.ReplaceAfterTicks <= 0 {
		return "", ""
	}
	if replaceURL != "" && now.Sub(st.lastReplace) < c.cfg.ReplaceCooldown {
		return "", ""
	}
	return replaceURL, reason
}

// replaceReplica swaps one unhealthy replica for a fresh one: start the
// replacement first so capacity never dips, then drain the sick replica
// gracefully. A failed start aborts the replacement; a failed drain
// still counts it (the fresh replica is live — the sick one just needs
// another attempt or the crash path to clear it).
func (c *Controller) replaceReplica(ctx context.Context, st *serviceState, name, url, reason string, now time.Time, b Bounds) {
	rd, ok := c.target.(ReplicaDrainer)
	if !ok {
		c.record(st, ActionHold, fmt.Sprintf("replace wanted for %s (%s) but target cannot drain by URL", url, reason), now, clamp(st.actual, b))
		return
	}
	if err := c.target.StartReplica(name); err != nil {
		c.record(st, ActionHold, fmt.Sprintf("replace wanted for %s (%s) but start failed: %v", url, reason, err), now, clamp(st.actual, b))
		return
	}
	drainCtx, cancel := context.WithTimeout(ctx, c.cfg.DrainTimeout)
	defer cancel()
	err := rd.DrainReplica(drainCtx, name, url)
	c.mu.Lock()
	st.replacements++
	st.lastReplace = now
	st.lastScale = now
	st.upStreak, st.downStreak = 0, 0
	delete(st.unhealthyStreak, url)
	delete(st.health, url)
	c.mu.Unlock()
	if err != nil {
		c.record(st, ActionHold, fmt.Sprintf("replacement for %s started a fresh replica but drain failed: %v", url, err), now, clamp(st.actual+1, b))
		return
	}
	c.record(st, ActionReplace, fmt.Sprintf("replaced %s: %s", url, reason), now, clamp(st.actual, b))
}

// unhealthyList snapshots the currently-unhealthy replica URLs, sorted.
// Caller must hold c.mu.
func unhealthyList(st *serviceState) []string {
	var out []string
	for url, healthy := range st.health {
		if !healthy {
			out = append(out, url)
		}
	}
	sort.Strings(out)
	return out
}
