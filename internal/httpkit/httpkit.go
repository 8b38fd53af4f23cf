// Package httpkit is the shared scaffolding of the TeaStore services:
// JSON request/response helpers, a typed error envelope, a pooled JSON
// client, and a Server wrapper with health endpoints and graceful
// shutdown. Every Server also carries the observability layer — request
// tracing (X-Trace-Id propagation with per-hop spans), per-route latency
// histograms, and the /metrics, /metrics.json, and /trace/{id} endpoints
// — and every Client forwards the active trace on outbound calls.
//
// On top of that sits the resilience layer: Clients retry idempotent
// calls with capped exponential backoff and full jitter inside the
// caller's deadline budget, and guard every destination host with a
// circuit breaker so a dead backend fails fast instead of burning the
// full timeout per call. Servers shed load once a bounded in-flight
// limit is reached (503 + Retry-After instead of unbounded queueing) and
// can inject faults — latency, errors, blackholes — for chaos testing.
package httpkit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrorBody is the JSON error envelope every service returns.
type ErrorBody struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// Error implements error so callers can propagate decoded envelopes.
func (e *ErrorBody) Error() string {
	return fmt.Sprintf("http %d: %s", e.Status, e.Message)
}

// JSONBuffer is a pooled encode buffer with its encoder permanently
// bound to it, so encoding a request or response body allocates nothing
// once the pool is warm.
type JSONBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// Bytes is the encoded document, valid until Release.
func (jb *JSONBuffer) Bytes() []byte { return jb.buf.Bytes() }

// Release returns the buffer to the pool. The bytes must not be used
// afterwards. Buffers that grew past maxPooledEncodeBuf are dropped
// instead of pooled so one huge response (a 1000-order page of the order
// feed) doesn't pin memory forever.
func (jb *JSONBuffer) Release() {
	if jb.buf.Cap() <= maxPooledEncodeBuf {
		jsonEncodePool.Put(jb)
	}
}

// jsonEncodePool recycles encode state across requests.
var jsonEncodePool = sync.Pool{
	New: func() any {
		jb := &JSONBuffer{}
		jb.enc = json.NewEncoder(&jb.buf)
		return jb
	},
}

const maxPooledEncodeBuf = 256 << 10

// EncodeJSON marshals v into a pooled buffer — the allocation-free
// replacement for marshal-per-call on the request/response hot paths.
// The caller must Release the buffer when done with its bytes.
func EncodeJSON(v any) (*JSONBuffer, error) {
	jb := jsonEncodePool.Get().(*JSONBuffer)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		jsonEncodePool.Put(jb)
		return nil, err
	}
	return jb, nil
}

// WriteJSON encodes v with the given status. The body is encoded into a
// pooled buffer first and written in one shot with a preset
// Content-Length, so the header is only committed once the encode has
// succeeded — a failed encode becomes a clean 500 envelope instead of a
// truncated 200 body, and is logged rather than discarded.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if v == nil {
		w.WriteHeader(status)
		return
	}
	jb, err := EncodeJSON(v)
	if err != nil {
		log.Printf("httpkit: encoding %T response: %v", v, err)
		WriteError(w, http.StatusInternalServerError, "response encoding failed")
		return
	}
	defer jb.Release()
	data := jb.Bytes()
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

// WriteError sends the standard error envelope.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorBody{Status: status, Message: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds request bodies; TeaStore payloads are small.
const maxBodyBytes = 1 << 20

// ReadJSON decodes the request body into v, rejecting unknown fields and
// oversized bodies.
func ReadJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("httpkit: decoding body: %w", err)
	}
	return nil
}

// Server hosts one service with /health and /ready probes, per-route
// latency histograms behind /metrics and /metrics.json, a per-trace span
// dump behind /trace/{id}, admission control (SetMaxInflight), fault
// injection (SetChaos), and graceful shutdown. Construct with NewServer,
// then Start.
type Server struct {
	name  string
	mux   *http.ServeMux
	srv   *http.Server
	lis   net.Listener
	ready atomic.Bool
	reqs  atomic.Int64
	stats *routeStats
	spans *spanStore

	// serveErr carries a fatal Serve error; errCh delivers it once to a
	// watcher and is closed when the serve goroutine exits.
	serveErr atomic.Pointer[error]
	errCh    chan error

	// Admission control: maxInflight <= 0 means unlimited.
	maxInflight atomic.Int64
	inflight    atomic.Int64
	sheds       atomic.Int64

	// Fault injection.
	chaos         atomic.Pointer[ChaosConfig]
	chaosInjected atomic.Int64

	// extraGauges supplies control-plane gauges (e.g. the autoscaler's
	// desired/actual replica counts) appended to /metrics and
	// /metrics.json; nil when the server carries none.
	extraGauges atomic.Pointer[func() []Gauge]

	// clients whose resilience stats this server reports on /metrics —
	// the outbound side of the service that owns this server.
	clientMu sync.Mutex
	clients  []*Client

	// silent holds the accepted connections that have not sent a byte;
	// Shutdown closes those still silent after silentConnGrace.
	silentMu sync.Mutex
	silent   map[*trackedConn]struct{}
}

// NewServer puts the mux behind the server's request pipeline (serve) and
// adds the ops endpoints to it. addr may be ":0" for an ephemeral port.
func NewServer(name, addr string, mux *http.ServeMux) (*Server, error) {
	s := &Server{
		name: name, mux: mux, stats: newRouteStats(), spans: newSpanStore(), errCh: make(chan error, 1),
		silent: map[*trackedConn]struct{}{},
	}
	mux.HandleFunc("GET /health", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"service": name, "status": "up"})
	})
	mux.HandleFunc("GET /ready", func(w http.ResponseWriter, r *http.Request) {
		if s.ready.Load() {
			WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		WriteError(w, http.StatusServiceUnavailable, "not ready")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpkit: listen %s for %s: %w", addr, name, err)
	}
	s.lis = trackingListener{Listener: lis, srv: s}
	s.srv = &http.Server{
		Handler:           http.HandlerFunc(s.serve),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s, nil
}

// serve is the server's request pipeline — one ordered pass, outermost
// stage first:
//
//  1. recover: a panic anywhere below becomes a 500 envelope. When the
//     handler already wrote its headers, an envelope would be appended to
//     a half-sent body, so the connection is aborted instead — the one
//     honest signal left.
//  2. count: every request, ops endpoints included (Requests).
//  3. ops bypass: observability endpoints skip the remaining stages, so
//     an overloaded service can still be inspected, a draining one still
//     scraped, and histograms and span stores stay about real work.
//  4. admit: a bounded in-flight counter with fail-fast 503s, counted in
//     the resilience snapshot's Shed. Sheds are not observed — a 503
//     answered in microseconds would poison the latency histograms. The
//     in-flight gauge is maintained even with shedding disabled — it
//     feeds drains and the autoscaler's saturation score, not just the
//     limit check.
//  5. trace + observe: adopt or assign the trace identity, expose it via
//     context for downstream Client calls, echo it on the response, and
//     record a latency sample plus a span when the handler finishes.
//  6. chaos: innermost, so injected faults are observed like real handler
//     behaviour (ChaosInjected).
func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	span := Span{Service: s.name}
	admitted := false
	defer func() {
		p := recover()
		if admitted {
			s.observe(r, span, sw.status, p != nil)
			s.inflight.Add(-1)
		}
		if p == nil {
			return
		}
		if sw.status != 0 {
			panic(http.ErrAbortHandler)
		}
		WriteError(sw, http.StatusInternalServerError, "internal error: %v", p)
	}()
	s.reqs.Add(1)
	if skipObservation(r.URL.Path) {
		s.mux.ServeHTTP(sw, r)
		return
	}
	limit := s.maxInflight.Load()
	if cur := s.inflight.Add(1); limit > 0 && cur > limit {
		s.inflight.Add(-1)
		s.sheds.Add(1)
		sw.Header().Set("Retry-After", shedRetryAfter)
		WriteError(sw, http.StatusServiceUnavailable,
			"%s overloaded: %d requests in flight", s.name, limit)
		return
	}
	admitted = true
	tc := TraceContext{ID: r.Header.Get(TraceIDHeader)}
	if tc.ID == "" {
		tc.ID = NewTraceID()
	} else if d, err := strconv.Atoi(r.Header.Get(TraceDepthHeader)); err == nil && d > 0 {
		tc.Depth = min(d, maxTraceDepth)
	}
	r = r.WithContext(WithTrace(r.Context(), tc))
	sw.Header().Set(TraceIDHeader, tc.ID)
	span.TraceID, span.Depth = tc.ID, tc.Depth
	span.Route = normalizeRoute(r.Method, r.URL.Path)
	span.Start = time.Now()
	if s.injectChaos(sw, r) {
		return
	}
	s.mux.ServeHTTP(sw, r)
}

// Addr returns the bound address (host:port).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// URL returns the base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Name returns the service name.
func (s *Server) Name() string { return s.name }

// Requests returns the number of requests served.
func (s *Server) Requests() int64 { return s.reqs.Load() }

// SetReady flips the readiness probe.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the readiness probe's current state; Shutdown clears it.
func (s *Server) Ready() bool { return s.ready.Load() }

// SetMaxInflight bounds concurrently served requests; above the bound the
// server sheds with 503 + Retry-After instead of queueing. Zero or
// negative disables shedding. Safe to adjust while serving.
func (s *Server) SetMaxInflight(n int) { s.maxInflight.Store(int64(n)) }

// Inflight returns the requests currently being served. The gauge counts
// every non-observability request regardless of whether shedding is
// enabled, so graceful drains can wait on it.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// shedRetryAfter is the backoff hint sheds carry; clients honouring it
// spread their return instead of hammering an overloaded server.
const shedRetryAfter = "1"

// AttachClient registers an outbound client whose retry/breaker stats are
// reported in this server's metrics — the convention is the client a
// service uses for its own downstream calls.
func (s *Server) AttachClient(c *Client) {
	if c == nil {
		return
	}
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	s.clients = append(s.clients, c)
}

// attachedClients snapshots the registered clients.
func (s *Server) attachedClients() []*Client {
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	return append([]*Client(nil), s.clients...)
}

// Start serves in a background goroutine and marks the server ready. A
// fatal Serve error (the listener dying underneath a live server) is
// exposed via Err and delivered once on ErrChan; graceful Shutdown is not
// an error.
func (s *Server) Start() {
	s.ready.Store(true)
	go func() {
		err := s.srv.Serve(s.lis)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr.Store(&err)
			s.ready.Store(false)
			s.errCh <- err
		}
		close(s.errCh)
	}()
}

// Err returns the fatal Serve error, if any. Nil while serving normally
// and after a graceful Shutdown.
func (s *Server) Err() error {
	if p := s.serveErr.Load(); p != nil {
		return *p
	}
	return nil
}

// ErrChan delivers at most one fatal Serve error and is closed when the
// serve goroutine exits, so watchers can block without leaking.
func (s *Server) ErrChan() <-chan error { return s.errCh }

// silentConnGrace is how long after Shutdown starts a connection that
// has not sent a byte is still given to begin a request.
const silentConnGrace = 500 * time.Millisecond

// Shutdown drains connections within the context deadline. net/http
// waits up to 5 s for a connection that has not sent a whole request
// header, so a client's spare connection, dialed and parked without a
// request, would hold the drain that long; Shutdown closes the ones that
// are still silent silentConnGrace after it starts. A connection that
// has sent any byte is left to finish its request.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	t := time.AfterFunc(silentConnGrace, s.closeSilentConns)
	defer t.Stop()
	return s.srv.Shutdown(ctx)
}

// closeSilentConns closes every connection that has not sent a byte.
func (s *Server) closeSilentConns() {
	s.silentMu.Lock()
	var victims []*trackedConn
	for c := range s.silent {
		if c.settled.CompareAndSwap(false, true) {
			victims = append(victims, c)
		}
	}
	s.silentMu.Unlock()
	for _, c := range victims {
		_ = c.Close()
	}
}

// trackingListener registers each accepted TCP connection with its
// Server as silent until it sends a byte.
type trackingListener struct {
	net.Listener
	srv *Server
}

// Accept implements net.Listener.
func (l trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	tcp, ok := c.(*net.TCPConn)
	if err != nil || !ok {
		return c, err
	}
	tc := &trackedConn{TCPConn: tcp, srv: l.srv}
	l.srv.silentMu.Lock()
	l.srv.silent[tc] = struct{}{}
	l.srv.silentMu.Unlock()
	return tc, nil
}

// trackedConn is a server-side connection that knows whether its client
// has sent anything. Embedding *net.TCPConn keeps the methods net/http
// looks for (CloseWrite, ReadFrom).
type trackedConn struct {
	*net.TCPConn
	srv *Server
	// settled is set once, by whichever comes first: the first byte
	// read, which keeps the connection, or closeSilentConns, which
	// closes it.
	settled atomic.Bool
}

// Read implements net.Conn; the first byte read takes the connection
// off its server's silent set.
func (c *trackedConn) Read(p []byte) (int, error) {
	n, err := c.TCPConn.Read(p)
	if n > 0 && !c.settled.Load() && c.settled.CompareAndSwap(false, true) {
		c.untrack()
	}
	return n, err
}

// Close implements net.Conn.
func (c *trackedConn) Close() error {
	c.untrack()
	return c.TCPConn.Close()
}

func (c *trackedConn) untrack() {
	c.srv.silentMu.Lock()
	delete(c.srv.silent, c)
	c.srv.silentMu.Unlock()
}

// Kill abruptly closes the server — listener and every live connection —
// the way a crashing process would: in-flight requests die mid-stream
// and nothing is drained. Contrast Shutdown, the graceful path.
func (s *Server) Kill() error {
	s.ready.Store(false)
	return s.srv.Close()
}

// Client is a pooled JSON client for service-to-service calls. Unless
// configured otherwise it retries idempotent calls per
// DefaultRetryPolicy and circuit-breaks per destination host per
// DefaultBreakerConfig.
type Client struct {
	http     *http.Client
	retry    RetryPolicy
	breakers *breakerGroup // nil → breakers disabled
	balancer *Balancer     // nil → svc:// URLs are rejected
	hedger   *hedger       // nil → hedging disabled

	retries       atomic.Int64
	shortCircuits atomic.Int64
	hedges        atomic.Int64
}

// ClientOption customizes NewClient.
type ClientOption func(*Client)

// WithRetry replaces the client's default retry policy.
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p.normalized() }
}

// WithoutRetries disables retries: every call is issued exactly once.
func WithoutRetries() ClientOption {
	return func(c *Client) { c.retry = RetryPolicy{MaxAttempts: 1, BaseBackoff: 1, MaxBackoff: 1} }
}

// WithBreaker replaces the per-destination breaker config.
func WithBreaker(cfg BreakerConfig) ClientOption {
	return func(c *Client) { c.breakers = newBreakerGroup(cfg) }
}

// WithoutBreakers disables circuit breaking.
func WithoutBreakers() ClientOption {
	return func(c *Client) { c.breakers = nil }
}

// WithBalancer routes svc:// base URLs through b: each attempt resolves
// the logical service name to a live replica (power-of-two-choices over
// in-flight counts) and an open breaker on one replica fails over to the
// rest instead of failing the call.
func WithBalancer(b *Balancer) ClientOption {
	return func(c *Client) { c.balancer = b }
}

// WithHedge enables budgeted request hedging on balanced idempotent
// calls per the given policy (zero value = defaults). Requires a
// balancer — hedging a fixed destination would just double its load.
func WithHedge(p HedgePolicy) ClientOption {
	return func(c *Client) { c.hedger = newHedger(p) }
}

// NewClient returns a client with sane pooling for loopback traffic and
// the default resilience policies (override via options).
func NewClient(timeout time.Duration, opts ...ClientOption) *Client {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	c := &Client{
		http: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConns:        512,
				MaxIdleConnsPerHost: 128,
				IdleConnTimeout:     60 * time.Second,
			},
		},
		retry:    DefaultRetryPolicy(),
		breakers: newBreakerGroup(DefaultBreakerConfig()),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Retries counts re-issued attempts since the client was created.
func (c *Client) Retries() int64 { return c.retries.Load() }

// ShortCircuits counts calls refused by an open breaker.
func (c *Client) ShortCircuits() int64 { return c.shortCircuits.Load() }

// Hedges counts hedge attempts actually launched.
func (c *Client) Hedges() int64 { return c.hedges.Load() }

// ClientResilience is one client's cumulative retry/breaker summary plus
// its balancer's per-replica routing counts.
type ClientResilience struct {
	Retries       int64 `json:"retries"`
	ShortCircuits int64 `json:"shortCircuits"`
	// Hedges counts launched hedge attempts; HedgeEligible the calls
	// they are budgeted against (Hedges/HedgeEligible ≤ the policy's
	// MaxFraction).
	Hedges        int64                      `json:"hedges,omitempty"`
	HedgeEligible int64                      `json:"hedgeEligible,omitempty"`
	Breakers      map[string]BreakerSnapshot `json:"breakers,omitempty"`
	// Replicas maps destination service → replica address → routed traffic.
	Replicas map[string]map[string]ReplicaCounts `json:"replicas,omitempty"`
}

// ResilienceSnapshot summarizes the client's resilience activity.
func (c *Client) ResilienceSnapshot() ClientResilience {
	out := ClientResilience{
		Retries:       c.retries.Load(),
		ShortCircuits: c.shortCircuits.Load(),
		Hedges:        c.hedges.Load(),
	}
	if c.hedger != nil {
		out.HedgeEligible = c.hedger.eligible.Load()
	}
	if c.breakers != nil {
		out.Breakers = c.breakers.snapshots()
	}
	if c.balancer != nil {
		out.Replicas = c.balancer.Snapshot()
	}
	return out
}

// GetJSON GETs url and decodes into out (which may be nil to discard).
func (c *Client) GetJSON(ctx context.Context, url string, out any) error {
	return c.doJSON(ctx, http.MethodGet, url, nil, out)
}

// PostJSON POSTs in as JSON and decodes the response into out.
func (c *Client) PostJSON(ctx context.Context, url string, in, out any) error {
	return c.doJSON(ctx, http.MethodPost, url, in, out)
}

// doJSON issues one JSON call. The request body is encoded into a pooled
// buffer that is held until exec returns — exec replays it from the same
// bytes across retries — then recycled, so steady-state calls allocate
// no encode buffers.
func (c *Client) doJSON(ctx context.Context, method, url string, in, out any) error {
	var body []byte
	var contentType string
	var jb *JSONBuffer
	if in != nil {
		var err error
		jb, err = EncodeJSON(in)
		if err != nil {
			return err
		}
		body = jb.Bytes()
		contentType = "application/json"
	}
	resp, err := c.exec(ctx, method, url, body, contentType)
	if jb != nil {
		// exec has finished sending (or abandoned) every attempt's copy of
		// the body by the time it returns.
		jb.Release()
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("httpkit: decoding response from %s: %w", url, err)
	}
	return nil
}

// maxBytesBody caps a GetBytes payload.
const maxBytesBody = 32 << 20

// GetBytes GETs a binary payload (images) and appends it to dst, which
// may be a reused buffer or nil. A declared Content-Length is read in
// place after growing dst once. A body over maxBytesBody, or shorter
// than it declared, is an error, never a silently truncated payload.
func (c *Client) GetBytes(ctx context.Context, url string, dst []byte) ([]byte, error) {
	resp, err := c.exec(ctx, http.MethodGet, url, nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	if n := resp.ContentLength; n > maxBytesBody {
		return nil, fmt.Errorf("httpkit: GET %s: body of %d bytes exceeds the %d-byte cap", url, n, maxBytesBody)
	} else if n >= 0 {
		dst = slices.Grow(dst, int(n))
		body := dst[len(dst) : len(dst)+int(n)]
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, fmt.Errorf("httpkit: GET %s: reading %d-byte body: %w", url, n, err)
		}
		return dst[:len(dst)+int(n)], nil
	}
	buf := bytes.NewBuffer(dst)
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, maxBytesBody+1))
	if err != nil {
		return nil, err
	}
	if n > maxBytesBody {
		return nil, fmt.Errorf("httpkit: GET %s: body exceeds the %d-byte cap", url, maxBytesBody)
	}
	return buf.Bytes(), nil
}

// injectTrace forwards the context's trace identity one hop deeper so the
// receiving Server records its span under the same trace ID.
func injectTrace(req *http.Request) {
	if tc, ok := TraceFrom(req.Context()); ok {
		req.Header.Set(TraceIDHeader, tc.ID)
		req.Header.Set(TraceDepthHeader, strconv.Itoa(tc.Depth+1))
	}
}

// call is one logical request on its way through the pipeline: what to
// send, and the destination its URL resolved to.
type call struct {
	method, contentType string
	body                []byte

	// service is the logical name of a svc:// destination, or the host of
	// a literal URL. svc is the balancer's state for it; nil for a literal
	// URL, which names one fixed address — nothing to balance or eject,
	// and no sibling a hedge could go to.
	service string
	svc     *balancedService
	fixed   []string
	// target is the literal URL as given, or the path and query appended
	// to whichever replica of a balanced service is picked.
	target string
	// key is the shard routing key (WithShardKey); balanced calls only.
	key string
}

// resolve is the pipeline's first stage: the URL becomes a destination. A
// svc:// URL names a logical service whose replicas the client's Balancer
// tracks; any other URL is a one-address destination that needs no
// balancer.
func (c *Client) resolve(ctx context.Context, method, rawURL string, body []byte, contentType string) (*call, error) {
	cl := &call{method: method, contentType: contentType, body: body}
	if service, rest, balanced := splitBalancedURL(rawURL); balanced {
		if c.balancer == nil {
			return nil, fmt.Errorf("httpkit: balanced URL %s on a client with no balancer", rawURL)
		}
		cl.service, cl.svc, cl.target = service, c.balancer.service(service), rest
		cl.key, _ = ShardKeyFrom(ctx)
		return cl, nil
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	cl.service, cl.fixed, cl.target = u.Host, []string{u.Host}, rawURL
	return cl, nil
}

// candidates lists the addresses an attempt may go to: the balancer's
// live replicas (cached, re-resolved per its TTL and invalidations), or
// the literal URL's one host.
func (cl *call) candidates(ctx context.Context) ([]string, error) {
	if cl.svc == nil {
		return cl.fixed, nil
	}
	return cl.svc.candidates(ctx)
}

// policy resolves the retry policy governing one call — the client's, or
// the context's per-call override — and the attempts the method may take
// under it.
func (c *Client) policy(ctx context.Context, method string) (RetryPolicy, int) {
	pol := c.retry
	if override, ok := callRetryFrom(ctx); ok {
		override.RetryNonIdempotent = override.RetryNonIdempotent || pol.RetryNonIdempotent
		pol = override
	}
	if pol.MaxAttempts > 1 && pol.repeatable(method) {
		return pol, pol.MaxAttempts
	}
	return pol, 1
}

// exec issues one logical call through the request pipeline — resolve →
// pick → admit (breaker) → attempt (with optional hedge) → observe — up to
// MaxAttempts times, separated by full-jittered exponential backoff that
// never outlives the context deadline. It is the only retry loop: a
// literal URL and a svc:// URL differ in what they resolve to, not in how
// they are retried. The returned response may carry any status; the caller
// decodes. Transport failures and retryable statuses (5xx, 429) count
// against the destination's breaker; 4xx answers count as successes — the
// service is alive and talking. Failures caused by the caller's own
// context ending are not recorded at all: they carry no signal about
// backend health.
//
// Each attempt picks afresh, so a retry after one replica fails lands on
// a different replica, and an open breaker on one replica fails over to
// the rest instead of failing fast. Only when every address's breaker
// refuses does the call short-circuit with ErrCircuitOpen. When hedging
// is enabled (WithHedge), a repeatable balanced call whose first attempt
// outlives the adaptive hedge delay fires one extra attempt at a sibling
// replica; the first acceptable response wins and the loser is cancelled.
func (c *Client) exec(ctx context.Context, method, rawURL string, body []byte, contentType string) (*http.Response, error) {
	pol, attempts := c.policy(ctx, method)
	cl, err := c.resolve(ctx, method, rawURL, body, contentType)
	if err != nil {
		return nil, err
	}
	// Hedge only calls that are safe to issue twice — the same bar retries
	// use — and only where a sibling replica could exist.
	mayHedge := c.hedger != nil && cl.svc != nil && pol.repeatable(method)
	var lastErr error
	var failed map[string]bool // replicas that already failed this call
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if !backoff(ctx, pol, attempt) {
				// Deadline budget exhausted: surface the last real
				// failure, annotated, rather than a bare context error.
				return nil, fmt.Errorf("httpkit: retry budget exhausted after %d attempts: %w", attempt, lastErr)
			}
		}
		res := c.attempt(ctx, cl, failed, mayHedge && attempt == 0)
		for _, a := range res.failedAddrs {
			failed = markFailed(failed, a)
		}
		if res.err != nil {
			if res.fatal || errors.Is(res.err, ErrCircuitOpen) || ctx.Err() != nil {
				// Building the request cannot succeed on retry; an open
				// breaker on every replica means the destination is
				// known-bad, and spending the remaining attempts would
				// just burn the backoff budget against a closed gate; a
				// dead caller context ends the call. None of these earn
				// another attempt.
				return nil, res.err
			}
			lastErr = res.err
			continue
		}
		if retryableStatus(res.resp.StatusCode) && attempt+1 < attempts {
			lastErr = decodeError(res.resp)
			res.resp.Body.Close()
			continue
		}
		return res.resp, nil
	}
	return nil, lastErr
}

// attemptResult is the decisive outcome of one logical attempt (primary
// launch plus optional hedge).
type attemptResult struct {
	resp        *http.Response // any HTTP answer, including retryable statuses
	err         error
	fatal       bool     // request construction failed; retrying cannot help
	failedAddrs []string // replicas that failed during this attempt
}

// attemptState identifies one in-flight physical attempt.
type attemptState struct {
	addr    string
	br      *Breaker      // nil with breakers disabled
	replica *replicaState // nil for a literal URL
	cancel  context.CancelFunc
}

// attemptOutcome is what a physical attempt's goroutine reports back.
// The observe stage has already run for the attempt by the time it is
// sent, so arbitration only selects and cleans up.
type attemptOutcome struct {
	st   *attemptState
	resp *http.Response
	err  error
	kind int
}

const (
	outcomeOK        = iota // decisive answer (2xx/3xx/4xx)
	outcomeBadStatus        // retryable status (5xx, 429); resp carried
	outcomeTransport        // connection-level failure
	outcomeCancelled        // context ended first (caller or arbitration)
)

// attempt runs one logical attempt: it lists the candidates, picks and
// admits the primary, launches it, optionally arms a hedge timer, and
// arbitrates — the first acceptable response wins, the loser is cancelled
// and drained in the background.
//
// When no address is admissible the cache is invalidated (the list is
// evidently rotten) and ErrCircuitOpen surfaces as one client-level short
// circuit. A write whose owner shard has no pickable replica fails as a
// retryable routing error instead — the failure invalidates the cache, so
// the retry re-resolves and sees the post-churn shard map.
func (c *Client) attempt(ctx context.Context, cl *call, failed map[string]bool, mayHedge bool) attemptResult {
	addrs, err := cl.candidates(ctx)
	if err != nil {
		return attemptResult{err: fmt.Errorf("httpkit: resolving %s: %w", cl.service, err)}
	}
	primaryAddr, br := c.admit(cl, addrs, failed, nil)
	if primaryAddr == "" {
		c.shortCircuits.Add(1)
		if cl.svc != nil {
			cl.svc.invalidate()
		}
		if cl.key != "" && !readMethod(cl.method) {
			return attemptResult{err: fmt.Errorf("httpkit: no admissible replica owns the shard for key %q of %s (%d live replicas)", cl.key, cl.service, len(addrs))}
		}
		return attemptResult{err: fmt.Errorf("%w for %s: none of its %d addresses admits the call", ErrCircuitOpen, cl.service, len(addrs))}
	}
	ch := make(chan attemptOutcome, 2)
	pst, err := c.launch(ctx, cl, primaryAddr, br, ch)
	if err != nil {
		return attemptResult{err: err, fatal: true}
	}
	var timerC <-chan time.Time
	if mayHedge {
		if d, ok := c.hedger.armDelay(cl.service); ok {
			t := time.NewTimer(d)
			defer t.Stop()
			timerC = t.C
		}
	}
	hst := (*attemptState)(nil)
	outstanding := 1
	var firstFail *attemptOutcome
	var failedAddrs []string
	for {
		select {
		case out := <-ch:
			outstanding--
			other := pst
			if out.st == pst {
				other = hst
			}
			switch out.kind {
			case outcomeOK:
				if outstanding > 0 {
					abandonLoser(other, ch)
				}
				closeFailure(firstFail)
				// The winner's context must outlive exec — the caller
				// still reads the body — so it is released on Close.
				out.resp.Body = &cancelOnCloseBody{ReadCloser: out.resp.Body, cancel: out.st.cancel}
				return attemptResult{resp: out.resp, failedAddrs: failedAddrs}
			case outcomeCancelled:
				// Arbitration never cancels before a winner, so this is
				// the caller's own context ending.
				out.st.cancel()
				if outstanding > 0 {
					abandonLoser(other, ch)
				}
				closeFailure(firstFail)
				return attemptResult{err: out.err, failedAddrs: failedAddrs}
			default: // outcomeBadStatus, outcomeTransport
				failedAddrs = append(failedAddrs, out.st.addr)
				if out.resp == nil {
					out.st.cancel()
				}
				if outstanding > 0 {
					held := out
					firstFail = &held
					continue
				}
				return decisiveFailure(firstFail, &out, failedAddrs)
			}
		case <-timerC:
			timerC = nil
			if h := c.hedge(ctx, cl, addrs, primaryAddr, ch); h != nil {
				hst = h
				outstanding++
			}
		}
	}
}

// admit runs the pick and admit stages: pick an address — power-of-two-
// choices over in-flight counts for a balanced service, steering away
// from avoid; the one host of a literal URL — and ask its breaker. A
// refusing address joins skip, which is never picked from, and the pick
// repeats, so an open breaker on one replica fails over to the rest. It
// returns "" when no address is admissible, and has no other effect: what
// an empty pick means is the caller's to decide.
//
// The call's shard key narrows a balanced pick to the owner shard's
// replicas; a read (GET/HEAD) widens back to siblings when no owner
// replica is admissible, a write stays pinned to the owner.
func (c *Client) admit(cl *call, addrs []string, avoid, skip map[string]bool) (string, *Breaker) {
	for {
		pool := without(addrs, skip)
		var addr string
		if cl.svc != nil {
			addr = cl.svc.pick(pool, avoid, cl.key, readMethod(cl.method))
		} else if len(pool) > 0 {
			addr = pool[0]
		}
		if addr == "" || c.breakers == nil {
			return addr, nil
		}
		br := c.breakers.get(addr)
		if br.Allow() {
			return addr, br
		}
		skip = markFailed(skip, addr)
	}
}

// launch fires one physical attempt in a goroutine and reports its
// outcome on ch once the observe stage has run. admit has already
// reserved the breaker admission (br may be nil).
func (c *Client) launch(ctx context.Context, cl *call, addr string, br *Breaker, ch chan<- attemptOutcome) (*attemptState, error) {
	actx, cancel := context.WithCancel(ctx)
	req, err := cl.newRequest(actx, addr)
	if err != nil {
		cancel()
		if br != nil {
			br.Release()
		}
		return nil, err
	}
	st := &attemptState{addr: addr, br: br, cancel: cancel}
	if cl.svc != nil {
		st.replica = cl.svc.acquire(addr)
	}
	go func() {
		start := time.Now()
		resp, derr := c.http.Do(req)
		out := attemptOutcome{st: st, resp: resp, err: derr}
		switch {
		case derr != nil && (ctx.Err() != nil || actx.Err() != nil):
			// Cancelled — by the caller or by losing the hedge race.
			out.kind = outcomeCancelled
		case derr != nil:
			out.kind = outcomeTransport
		case retryableStatus(resp.StatusCode):
			out.kind = outcomeBadStatus
		default:
			out.kind = outcomeOK
		}
		c.observe(cl, st, out.kind, time.Since(start))
		ch <- out
	}()
	return st, nil
}

// observe is the pipeline's last stage: one physical attempt's outcome
// feeds the breaker, the replica's in-flight gauge and outlier EWMAs, the
// hedge-delay reservoir and — on a dead connection — the balancer's cache.
func (c *Client) observe(cl *call, st *attemptState, kind int, elapsed time.Duration) {
	if st.br != nil {
		if kind == outcomeCancelled {
			// A cancelled request says nothing about backend health, so
			// it must not trip the breaker (a burst of client disconnects
			// would otherwise open breakers against healthy hosts). The
			// half-open probe slot Allow may have reserved still has to
			// be returned, or the breaker wedges open.
			st.br.Release()
		} else {
			st.br.Record(kind == outcomeOK)
		}
	}
	if cl.svc == nil {
		return
	}
	st.replica.inflight.Add(-1)
	// The elapsed-at-cancel of a cancelled attempt still feeds the outlier
	// EWMA as a censored latency sample (a replica that is routinely
	// slower than the hedge delay keeps looking slow).
	cl.svc.observe(st.replica, elapsed, kind == outcomeBadStatus || kind == outcomeTransport)
	switch kind {
	case outcomeTransport:
		// A dead connection often means the replica is gone; re-resolve
		// before the cache TTL lapses.
		cl.svc.invalidate()
	case outcomeOK:
		if c.hedger != nil {
			c.hedger.observeLatency(cl.service, elapsed)
		}
	}
}

// hedge spends hedge budget and fires the second attempt at a replica
// other than the primary. The pick is optional: when the budget is
// exhausted or no sibling is admissible the hedge is simply not launched
// and the budget refunded — the primary is still in flight, so nothing is
// booked as a short circuit and the cache stays valid.
func (c *Client) hedge(ctx context.Context, cl *call, addrs []string, primaryAddr string, ch chan<- attemptOutcome) *attemptState {
	if !c.hedger.spend() {
		return nil
	}
	addr, br := c.admit(cl, addrs, nil, map[string]bool{primaryAddr: true})
	if addr == "" {
		c.hedger.refund()
		return nil
	}
	st, err := c.launch(ctx, cl, addr, br, ch)
	if err != nil {
		c.hedger.refund()
		return nil
	}
	c.hedges.Add(1)
	st.replica.hedges.Add(1)
	return st
}

// abandonLoser cancels the losing attempt and drains its eventual
// outcome in the background so neither the goroutine nor its response
// body leaks. The loser's own goroutine has already run (or will run) the
// observe stage.
func abandonLoser(st *attemptState, ch <-chan attemptOutcome) {
	st.cancel()
	go func() {
		o := <-ch
		if o.resp != nil {
			o.resp.Body.Close()
		}
		o.st.cancel()
	}()
}

// closeFailure releases a held failure outcome's response and context.
func closeFailure(o *attemptOutcome) {
	if o == nil {
		return
	}
	if o.resp != nil {
		o.resp.Body.Close()
	}
	o.st.cancel()
}

// decisiveFailure picks which of (up to) two failures to surface: one
// carrying an HTTP response beats a bare transport error, so the caller
// gets a decodable envelope when any replica produced one.
func decisiveFailure(a, b *attemptOutcome, failedAddrs []string) attemptResult {
	win, lose := b, a
	if a != nil && a.resp != nil && b.resp == nil {
		win, lose = a, b
	}
	closeFailure(lose)
	if win.resp != nil {
		win.resp.Body = &cancelOnCloseBody{ReadCloser: win.resp.Body, cancel: win.st.cancel}
		return attemptResult{resp: win.resp, failedAddrs: failedAddrs}
	}
	return attemptResult{err: win.err, failedAddrs: failedAddrs}
}

// cancelOnCloseBody ties an attempt's context lifetime to its response
// body: the context is released when the caller finishes reading, not
// when exec returns.
type cancelOnCloseBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnCloseBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// markFailed adds an address to a lazily allocated set — the replicas
// that failed the current logical call, or that a pick must skip.
func markFailed(m map[string]bool, addr string) map[string]bool {
	if m == nil {
		m = map[string]bool{}
	}
	m[addr] = true
	return m
}

// newRequest builds one attempt's request to addr; bodies are replayed
// from the original bytes so every retry sends the full payload.
func (cl *call) newRequest(ctx context.Context, addr string) (*http.Request, error) {
	target := cl.target
	if cl.svc != nil {
		target = "http://" + addr + target
	}
	var rd io.Reader
	if cl.body != nil {
		rd = bytes.NewReader(cl.body)
	}
	req, err := http.NewRequestWithContext(ctx, cl.method, target, rd)
	if err != nil {
		return nil, err
	}
	if cl.contentType != "" {
		req.Header.Set("Content-Type", cl.contentType)
	}
	injectTrace(req)
	return req, nil
}

// decodeError turns a non-2xx response into an *ErrorBody when possible.
// Non-JSON, truncated, and nil bodies all degrade to an envelope carrying
// the HTTP status and whatever body text was readable.
func decodeError(resp *http.Response) error {
	var data []byte
	if resp.Body != nil {
		data, _ = io.ReadAll(io.LimitReader(resp.Body, 8<<10))
	}
	var body ErrorBody
	if json.Unmarshal(data, &body) == nil && body.Status != 0 {
		return &body
	}
	return &ErrorBody{Status: resp.StatusCode, Message: string(data)}
}

// IsStatus reports whether err is an ErrorBody with the given status.
func IsStatus(err error, status int) bool {
	var e *ErrorBody
	return errors.As(err, &e) && e.Status == status
}
