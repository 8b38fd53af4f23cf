// Package registry implements TeaStore's service-discovery component:
// instances register a (service, address) pair, keep it alive with
// heartbeats, and clients look up the live instance list.
package registry

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/httpkit"
)

// DefaultTTL is how long a registration survives without a heartbeat.
const DefaultTTL = 10 * time.Second

// Registration is one live instance. Shard is the partition of the
// service's keyspace this instance owns (sharded services only; nil for
// the stateless majority). The registry stores it verbatim and serves it
// back through the instances listing — this is how the persistence
// plane's shard map is published to every balancer.
type Registration struct {
	Service string `json:"service"`
	Address string `json:"address"`         // host:port
	Shard   *int   `json:"shard,omitempty"` // keyspace partition, nil = unsharded
}

// ShardID returns the registration's shard, or -1 when unsharded.
func (r Registration) ShardID() int {
	if r.Shard == nil {
		return -1
	}
	return *r.Shard
}

// Instance is one live instance with its shard label, as served by
// GET /instances/{name}.
type Instance struct {
	Address string `json:"address"`
	Shard   int    `json:"shard"` // -1 = unsharded
}

// entry tracks liveness.
type entry struct {
	reg      Registration
	lastSeen time.Time
}

// Registry is the in-memory discovery table.
type Registry struct {
	mu      sync.RWMutex
	ttl     time.Duration
	entries map[string]map[string]*entry // service → address → entry
	now     func() time.Time
}

// New returns a registry with the given TTL (0 means DefaultTTL).
func New(ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Registry{
		ttl:     ttl,
		entries: map[string]map[string]*entry{},
		now:     time.Now,
	}
}

// Register adds or refreshes an instance.
func (r *Registry) Register(reg Registration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byAddr, ok := r.entries[reg.Service]
	if !ok {
		byAddr = map[string]*entry{}
		r.entries[reg.Service] = byAddr
	}
	byAddr[reg.Address] = &entry{reg: reg, lastSeen: r.now()}
}

// Heartbeat refreshes an instance; it reports false when the registration
// does not exist (expired or never registered) so the caller re-registers.
func (r *Registry) Heartbeat(reg Registration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[reg.Service][reg.Address]
	if !ok {
		return false
	}
	e.lastSeen = r.now()
	return true
}

// Deregister removes an instance immediately.
func (r *Registry) Deregister(reg Registration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.entries[reg.Service], reg.Address)
}

// Lookup lists the live addresses of a service. The slice is sorted
// lexically so tests and reports are deterministic — it is NOT a routing
// order. A consumer that always takes the first entry pins every request
// to one replica; replica choice belongs to httpkit.Balancer, which
// spreads traffic by in-flight load, not list position.
func (r *Registry) Lookup(service string) []string {
	cutoff := r.now().Add(-r.ttl)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for addr, e := range r.entries[service] {
		if e.lastSeen.After(cutoff) {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// LookupInstances lists the live instances of a service with their shard
// labels, sorted by address (deterministic, not a routing order).
func (r *Registry) LookupInstances(service string) []Instance {
	cutoff := r.now().Add(-r.ttl)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Instance
	for addr, e := range r.entries[service] {
		if e.lastSeen.After(cutoff) {
			out = append(out, Instance{Address: addr, Shard: e.reg.ShardID()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Address < out[j].Address })
	return out
}

// Services lists all service names with at least one live instance.
func (r *Registry) Services() []string {
	cutoff := r.now().Add(-r.ttl)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for svc, byAddr := range r.entries {
		for _, e := range byAddr {
			if e.lastSeen.After(cutoff) {
				out = append(out, svc)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Sweep removes expired entries; call periodically (the HTTP server does).
func (r *Registry) Sweep() int {
	cutoff := r.now().Add(-r.ttl)
	r.mu.Lock()
	defer r.mu.Unlock()
	removed := 0
	for svc, byAddr := range r.entries {
		for addr, e := range byAddr {
			if !e.lastSeen.After(cutoff) {
				delete(byAddr, addr)
				removed++
			}
		}
		if len(byAddr) == 0 {
			delete(r.entries, svc)
		}
	}
	return removed
}

// Mux returns the HTTP API:
//
//	POST /register     {service, address}
//	POST /heartbeat    {service, address}   → 404 when unknown
//	POST /deregister   {service, address}
//	GET  /services                          → ["auth", ...]
//	GET  /services/{name}                   → ["host:port", ...]
//	GET  /instances/{name}                  → [{address, shard}, ...]
func (r *Registry) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	decode := func(w http.ResponseWriter, req *http.Request) (Registration, bool) {
		var reg Registration
		if err := httpkit.ReadJSON(req, &reg); err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, "%v", err)
			return reg, false
		}
		if reg.Service == "" || reg.Address == "" {
			httpkit.WriteError(w, http.StatusBadRequest, "service and address are required")
			return reg, false
		}
		return reg, true
	}
	mux.HandleFunc("POST /register", func(w http.ResponseWriter, req *http.Request) {
		if reg, ok := decode(w, req); ok {
			r.Register(reg)
			httpkit.WriteJSON(w, http.StatusOK, reg)
		}
	})
	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, req *http.Request) {
		if reg, ok := decode(w, req); ok {
			if !r.Heartbeat(reg) {
				httpkit.WriteError(w, http.StatusNotFound, "unknown registration %s@%s", reg.Service, reg.Address)
				return
			}
			httpkit.WriteJSON(w, http.StatusOK, reg)
		}
	})
	mux.HandleFunc("POST /deregister", func(w http.ResponseWriter, req *http.Request) {
		if reg, ok := decode(w, req); ok {
			r.Deregister(reg)
			httpkit.WriteJSON(w, http.StatusOK, reg)
		}
	})
	mux.HandleFunc("GET /services", func(w http.ResponseWriter, req *http.Request) {
		httpkit.WriteJSON(w, http.StatusOK, r.Services())
	})
	mux.HandleFunc("GET /services/{name}", func(w http.ResponseWriter, req *http.Request) {
		httpkit.WriteJSON(w, http.StatusOK, r.Lookup(req.PathValue("name")))
	})
	mux.HandleFunc("GET /instances/{name}", func(w http.ResponseWriter, req *http.Request) {
		httpkit.WriteJSON(w, http.StatusOK, r.LookupInstances(req.PathValue("name")))
	})
	return mux
}

// StartSweeper launches a janitor goroutine; the returned stop function
// terminates it.
func (r *Registry) StartSweeper(period time.Duration) (stop func()) {
	if period <= 0 {
		period = time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Sweep()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

// Client accesses a remote registry.
type Client struct {
	http *httpkit.Client
	base string
}

// NewClient returns a client for the registry at baseURL.
func NewClient(baseURL string, hc *httpkit.Client) *Client {
	if hc == nil {
		hc = httpkit.NewClient(0)
	}
	return &Client{http: hc, base: baseURL}
}

// Register registers an instance remotely.
func (c *Client) Register(ctx context.Context, reg Registration) error {
	return c.http.PostJSON(ctx, c.base+"/register", reg, nil)
}

// Heartbeat refreshes; ok=false means the server lost the registration.
func (c *Client) Heartbeat(ctx context.Context, reg Registration) (bool, error) {
	err := c.http.PostJSON(ctx, c.base+"/heartbeat", reg, nil)
	if httpkit.IsStatus(err, http.StatusNotFound) {
		return false, nil
	}
	return err == nil, err
}

// Deregister removes an instance remotely.
func (c *Client) Deregister(ctx context.Context, reg Registration) error {
	return c.http.PostJSON(ctx, c.base+"/deregister", reg, nil)
}

// Lookup lists live addresses of a service.
func (c *Client) Lookup(ctx context.Context, service string) ([]string, error) {
	var out []string
	err := c.http.GetJSON(ctx, c.base+"/services/"+service, &out)
	return out, err
}

// LookupShards lists live instances with shard labels; it satisfies
// httpkit.ShardResolver, which is how the balancer learns the
// persistence plane's shard map.
func (c *Client) LookupShards(ctx context.Context, service string) ([]httpkit.ShardAddr, error) {
	var raw []Instance
	if err := c.http.GetJSON(ctx, c.base+"/instances/"+service, &raw); err != nil {
		return nil, err
	}
	out := make([]httpkit.ShardAddr, len(raw))
	for i, in := range raw {
		out[i] = httpkit.ShardAddr{Addr: in.Address, Shard: in.Shard}
	}
	return out, nil
}
