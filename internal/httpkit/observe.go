package httpkit

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// routeStats maps normalized routes to concurrent latency histograms. The
// hot path is a read-locked map lookup plus a lock-free Record; the write
// lock is taken only the first time a route is seen.
type routeStats struct {
	mu sync.RWMutex
	m  map[string]*metrics.AtomicHistogram
}

func newRouteStats() *routeStats {
	return &routeStats{m: map[string]*metrics.AtomicHistogram{}}
}

func (rs *routeStats) hist(route string) *metrics.AtomicHistogram {
	rs.mu.RLock()
	h := rs.m[route]
	rs.mu.RUnlock()
	if h != nil {
		return h
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if h := rs.m[route]; h != nil {
		return h
	}
	h = metrics.NewAtomicHistogram()
	rs.m[route] = h
	return h
}

// frozen copies every route histogram for coherent reporting.
func (rs *routeStats) frozen() map[string]*metrics.Histogram {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := make(map[string]*metrics.Histogram, len(rs.m))
	for route, h := range rs.m {
		out[route] = h.Freeze()
	}
	return out
}

// normalizeRoute collapses concrete paths onto route templates so the
// histogram keys stay low-cardinality: numeric segments become {id} and
// email-shaped segments become {email}. Queries are already stripped by
// the caller (r.URL.Path carries none).
func normalizeRoute(method, path string) string {
	if path == "" || path == "/" {
		return method + " /"
	}
	segs := strings.Split(strings.Trim(path, "/"), "/")
	for i, s := range segs {
		switch {
		case isDigits(s):
			segs[i] = "{id}"
		case strings.Contains(s, "@") || strings.Contains(s, "%40"):
			segs[i] = "{email}"
		}
	}
	return method + " /" + strings.Join(segs, "/")
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// skipObservation excludes the observability plumbing itself from the
// histograms and span stores, keeping them about real service work.
func skipObservation(path string) bool {
	switch path {
	case "/health", "/ready", "/metrics", "/metrics.json":
		return true
	}
	return strings.HasPrefix(path, "/trace/")
}

// statusWriter captures the response status — for the span, and for the
// recover stage's "were headers already sent" check.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// observe records one finished request: its span always, and a latency
// sample when the request counts as one. status is what the handler wrote
// (0 when nothing was written); a panic records a 500.
func (s *Server) observe(r *http.Request, span Span, status int, panicked bool) {
	abandoned := r.Context().Err() != nil
	if panicked {
		status = http.StatusInternalServerError
	} else if status == 0 {
		if abandoned {
			// The client went away before a response was written — a
			// cancelled hedge loser, a blackholed request, a closed
			// connection.
			status = 499
		} else {
			status = http.StatusOK
		}
	}
	span.Duration, span.Status = time.Since(span.Start), status
	// One logical request, one latency sample: abandoned requests (hedge
	// losers, blackholes — nobody received the response) and error answers
	// (a retried 500 would sample the same logical request on two servers;
	// sheds never get here for the same reason) stay out of the latency
	// histograms. Spans record everything.
	if !abandoned && status < http.StatusInternalServerError {
		s.stats.hist(span.Route).Record(span.Duration.Nanoseconds())
	}
	s.spans.add(span)
}

// Gauge is one labelled metric value a server exports beyond its built-in
// counters — the extension point control planes (the autoscaler) use to
// publish their state through the standard /metrics and /metrics.json
// endpoints.
type Gauge struct {
	Name   string            `json:"name"`
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// SetExtraMetrics installs a gauge supplier whose values are appended to
// /metrics (Prometheus text) and /metrics.json on every scrape. Pass nil
// to remove it. Safe to call while serving.
func (s *Server) SetExtraMetrics(fn func() []Gauge) {
	if fn == nil {
		s.extraGauges.Store(nil)
		return
	}
	s.extraGauges.Store(&fn)
}

// extraGaugeValues snapshots the installed supplier's gauges.
func (s *Server) extraGaugeValues() []Gauge {
	if p := s.extraGauges.Load(); p != nil {
		return (*p)()
	}
	return nil
}

// MetricsSnapshot is the JSON payload of /metrics.json: one service's
// request count plus overall and per-route latency summaries, and the
// resilience counters — server-side sheds and injected faults alongside
// the attached clients' retry/breaker activity. OverallBuckets carries
// the cumulative overall latency histogram's non-empty buckets so remote
// scrapers (the autoscale reconciler) can compute windowed percentiles
// from scrape-to-scrape bucket deltas instead of lifetime aggregates.
type MetricsSnapshot struct {
	Service        string                      `json:"service"`
	Requests       int64                       `json:"requests"`
	Overall        metrics.Snapshot            `json:"overall"`
	OverallBuckets []metrics.Bucket            `json:"overallBuckets,omitempty"`
	Routes         map[string]metrics.Snapshot `json:"routes"`
	Resilience     ResilienceSnapshot          `json:"resilience"`
	Gauges         []Gauge                     `json:"gauges,omitempty"`
}

// ResilienceSnapshot is one service's resilience summary: what its server
// shed and injected, and what its outbound clients retried, broke, and
// routed per destination replica.
type ResilienceSnapshot struct {
	Shed          int64                      `json:"shed"`
	Inflight      int64                      `json:"inflight"`
	ChaosInjected int64                      `json:"chaosInjected,omitempty"`
	Retries       int64                      `json:"retries"`
	ShortCircuits int64                      `json:"shortCircuits"`
	Hedges        int64                      `json:"hedges,omitempty"`
	HedgeEligible int64                      `json:"hedgeEligible,omitempty"`
	Breakers      map[string]BreakerSnapshot `json:"breakers,omitempty"`
	// Replicas maps destination service → replica address → traffic this
	// service's outbound clients routed there.
	Replicas map[string]map[string]ReplicaCounts `json:"replicas,omitempty"`
}

// resilienceSnapshot aggregates the server-side counters with every
// attached client's.
func (s *Server) resilienceSnapshot() ResilienceSnapshot {
	out := ResilienceSnapshot{
		Shed:          s.sheds.Load(),
		Inflight:      s.inflight.Load(),
		ChaosInjected: s.chaosInjected.Load(),
	}
	for _, c := range s.attachedClients() {
		cr := c.ResilienceSnapshot()
		out.Retries += cr.Retries
		out.ShortCircuits += cr.ShortCircuits
		out.Hedges += cr.Hedges
		out.HedgeEligible += cr.HedgeEligible
		for host, bs := range cr.Breakers {
			if out.Breakers == nil {
				out.Breakers = map[string]BreakerSnapshot{}
			}
			if prev, ok := out.Breakers[host]; ok {
				bs = mergeBreakerSnapshots(prev, bs)
			}
			out.Breakers[host] = bs
		}
		for svc, replicas := range cr.Replicas {
			if out.Replicas == nil {
				out.Replicas = map[string]map[string]ReplicaCounts{}
			}
			if out.Replicas[svc] == nil {
				out.Replicas[svc] = map[string]ReplicaCounts{}
			}
			for addr, rc := range replicas {
				prev := out.Replicas[svc][addr]
				merged := ReplicaCounts{
					Requests:      prev.Requests + rc.Requests,
					Inflight:      prev.Inflight + rc.Inflight,
					Hedges:        prev.Hedges + rc.Hedges,
					Ejections:     prev.Ejections + rc.Ejections,
					Ejected:       prev.Ejected || rc.Ejected,
					EwmaLatencyMs: max(prev.EwmaLatencyMs, rc.EwmaLatencyMs),
					EwmaErrorRate: max(prev.EwmaErrorRate, rc.EwmaErrorRate),
				}
				out.Replicas[svc][addr] = merged
			}
		}
	}
	return out
}

// mergeBreakerSnapshots combines two clients' breakers for the same
// destination host: counters sum and the more degraded state wins, so one
// client's healthy breaker cannot shadow another's open one in /metrics.
func mergeBreakerSnapshots(a, b BreakerSnapshot) BreakerSnapshot {
	state := a.State
	if breakerStateSeverity(b.State) > breakerStateSeverity(a.State) {
		state = b.State
	}
	return BreakerSnapshot{
		State:         state,
		Opens:         a.Opens + b.Opens,
		Successes:     a.Successes + b.Successes,
		Failures:      a.Failures + b.Failures,
		ShortCircuits: a.ShortCircuits + b.ShortCircuits,
	}
}

// breakerStateSeverity orders states from healthy to degraded.
func breakerStateSeverity(s string) int {
	switch s {
	case BreakerHalfOpen.String():
		return 1
	case BreakerOpen.String():
		return 2
	}
	return 0
}

// MetricsSnapshot summarizes the server's observed traffic.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	frozen := s.stats.frozen()
	out := MetricsSnapshot{
		Service:    s.name,
		Requests:   s.reqs.Load(),
		Routes:     make(map[string]metrics.Snapshot, len(frozen)),
		Resilience: s.resilienceSnapshot(),
		Gauges:     s.extraGaugeValues(),
	}
	var all metrics.Histogram
	for route, h := range frozen {
		out.Routes[route] = h.Snapshot()
		all.Merge(h)
	}
	out.Overall = all.Snapshot()
	out.OverallBuckets = all.Buckets()
	return out
}

// Spans returns the spans this server recorded under a trace ID.
func (s *Server) Spans(traceID string) []Span { return s.spans.get(traceID) }

// handleMetrics renders Prometheus text format: a request counter plus
// one cumulative latency histogram per route.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP teastore_requests_total Requests served since process start.\n")
	fmt.Fprintf(w, "# TYPE teastore_requests_total counter\n")
	fmt.Fprintf(w, "teastore_requests_total{service=%q} %d\n", s.name, s.reqs.Load())

	frozen := s.stats.frozen()
	routes := make([]string, 0, len(frozen))
	for route := range frozen {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	fmt.Fprintf(w, "# HELP teastore_request_duration_seconds Per-route request latency.\n")
	fmt.Fprintf(w, "# TYPE teastore_request_duration_seconds histogram\n")
	for _, route := range routes {
		h := frozen[route]
		var cum int64
		for _, b := range h.Buckets() {
			cum += b.Count
			fmt.Fprintf(w, "teastore_request_duration_seconds_bucket{service=%q,route=%q,le=%q} %d\n",
				s.name, route, formatSeconds(b.High), cum)
		}
		fmt.Fprintf(w, "teastore_request_duration_seconds_bucket{service=%q,route=%q,le=\"+Inf\"} %d\n",
			s.name, route, cum)
		fmt.Fprintf(w, "teastore_request_duration_seconds_sum{service=%q,route=%q} %s\n",
			s.name, route, formatSeconds(h.Sum()))
		fmt.Fprintf(w, "teastore_request_duration_seconds_count{service=%q,route=%q} %d\n",
			s.name, route, h.Count())
	}

	res := s.resilienceSnapshot()
	fmt.Fprintf(w, "# HELP teastore_shed_total Requests refused by admission control.\n")
	fmt.Fprintf(w, "# TYPE teastore_shed_total counter\n")
	fmt.Fprintf(w, "teastore_shed_total{service=%q} %d\n", s.name, res.Shed)
	fmt.Fprintf(w, "# HELP teastore_inflight_requests Requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE teastore_inflight_requests gauge\n")
	fmt.Fprintf(w, "teastore_inflight_requests{service=%q} %d\n", s.name, res.Inflight)
	fmt.Fprintf(w, "# HELP teastore_chaos_injected_total Faults injected by the chaos middleware.\n")
	fmt.Fprintf(w, "# TYPE teastore_chaos_injected_total counter\n")
	fmt.Fprintf(w, "teastore_chaos_injected_total{service=%q} %d\n", s.name, res.ChaosInjected)
	fmt.Fprintf(w, "# HELP teastore_client_retries_total Outbound attempts re-issued after a failure.\n")
	fmt.Fprintf(w, "# TYPE teastore_client_retries_total counter\n")
	fmt.Fprintf(w, "teastore_client_retries_total{service=%q} %d\n", s.name, res.Retries)
	fmt.Fprintf(w, "# HELP teastore_client_short_circuits_total Outbound calls refused by an open breaker.\n")
	fmt.Fprintf(w, "# TYPE teastore_client_short_circuits_total counter\n")
	fmt.Fprintf(w, "teastore_client_short_circuits_total{service=%q} %d\n", s.name, res.ShortCircuits)
	fmt.Fprintf(w, "# HELP teastore_client_hedges_total Outbound hedge attempts launched.\n")
	fmt.Fprintf(w, "# TYPE teastore_client_hedges_total counter\n")
	fmt.Fprintf(w, "teastore_client_hedges_total{service=%q} %d\n", s.name, res.Hedges)
	if len(res.Breakers) > 0 {
		hosts := make([]string, 0, len(res.Breakers))
		for host := range res.Breakers {
			hosts = append(hosts, host)
		}
		sort.Strings(hosts)
		fmt.Fprintf(w, "# HELP teastore_breaker_state Breaker state per destination (0 closed, 1 open, 2 half-open).\n")
		fmt.Fprintf(w, "# TYPE teastore_breaker_state gauge\n")
		for _, host := range hosts {
			fmt.Fprintf(w, "teastore_breaker_state{service=%q,dest=%q} %d\n",
				s.name, host, breakerStateValue(res.Breakers[host].State))
		}
		fmt.Fprintf(w, "# HELP teastore_breaker_opens_total Breaker closed-to-open transitions per destination.\n")
		fmt.Fprintf(w, "# TYPE teastore_breaker_opens_total counter\n")
		for _, host := range hosts {
			fmt.Fprintf(w, "teastore_breaker_opens_total{service=%q,dest=%q} %d\n",
				s.name, host, res.Breakers[host].Opens)
		}
	}
	if len(res.Replicas) > 0 {
		dests := make([]string, 0, len(res.Replicas))
		for dest := range res.Replicas {
			dests = append(dests, dest)
		}
		sort.Strings(dests)
		fmt.Fprintf(w, "# HELP teastore_replica_requests_total Outbound requests routed per destination replica by the client-side balancer.\n")
		fmt.Fprintf(w, "# TYPE teastore_replica_requests_total counter\n")
		for _, dest := range dests {
			addrs := make([]string, 0, len(res.Replicas[dest]))
			for addr := range res.Replicas[dest] {
				addrs = append(addrs, addr)
			}
			sort.Strings(addrs)
			for _, addr := range addrs {
				fmt.Fprintf(w, "teastore_replica_requests_total{service=%q,dest_service=%q,replica=%q} %d\n",
					s.name, dest, addr, res.Replicas[dest][addr].Requests)
			}
		}
		fmt.Fprintf(w, "# HELP teastore_replica_ejected Whether the client-side balancer currently ejects a replica as an outlier.\n")
		fmt.Fprintf(w, "# TYPE teastore_replica_ejected gauge\n")
		for _, dest := range dests {
			addrs := make([]string, 0, len(res.Replicas[dest]))
			for addr := range res.Replicas[dest] {
				addrs = append(addrs, addr)
			}
			sort.Strings(addrs)
			for _, addr := range addrs {
				v := 0
				if res.Replicas[dest][addr].Ejected {
					v = 1
				}
				fmt.Fprintf(w, "teastore_replica_ejected{service=%q,dest_service=%q,replica=%q} %d\n",
					s.name, dest, addr, v)
			}
		}
	}

	writeExtraGauges(w, s.extraGaugeValues())
}

// writeExtraGauges renders installed control-plane gauges in Prometheus
// text format, grouped by name so HELP/TYPE headers appear once.
func writeExtraGauges(w io.Writer, gauges []Gauge) {
	if len(gauges) == 0 {
		return
	}
	sort.SliceStable(gauges, func(i, j int) bool { return gauges[i].Name < gauges[j].Name })
	last := ""
	for _, g := range gauges {
		if g.Name != last {
			if g.Help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", g.Name, g.Help)
			}
			fmt.Fprintf(w, "# TYPE %s gauge\n", g.Name)
			last = g.Name
		}
		fmt.Fprintf(w, "%s%s %s\n", g.Name, formatLabels(g.Labels),
			strconv.FormatFloat(g.Value, 'g', -1, 64))
	}
}

// formatLabels renders a sorted {k="v",...} label set ("" when empty).
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, labels[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// breakerStateValue maps state names onto the gauge encoding.
func breakerStateValue(state string) int {
	switch state {
	case "open":
		return 1
	case "half-open":
		return 2
	}
	return 0
}

func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := s.spans.get(id)
	if len(spans) == 0 {
		WriteError(w, http.StatusNotFound, "unknown trace %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"traceId": id, "spans": spans})
}
