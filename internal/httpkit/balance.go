package httpkit

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shardmap"
)

// BalancedScheme marks a base URL as a logical service name rather than a
// fixed destination: a client configured WithBalancer resolves
// "svc://image/..." to a live replica per attempt. Clients without a
// balancer reject such URLs loudly instead of dialing a host named after
// the service.
const BalancedScheme = "svc"

// BalancedURL returns the logical base URL for a service, to be used in
// place of a concrete "http://host:port" by clients that balance.
func BalancedURL(service string) string { return BalancedScheme + "://" + service }

// Resolver resolves a logical service name to the live replica addresses
// (host:port). *registry.Client satisfies it, making the registry the
// routing plane; tests substitute static or scripted resolvers.
type Resolver interface {
	Lookup(ctx context.Context, service string) ([]string, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(ctx context.Context, service string) ([]string, error)

// Lookup implements Resolver.
func (f ResolverFunc) Lookup(ctx context.Context, service string) ([]string, error) {
	return f(ctx, service)
}

// ShardAddr is one replica address with its shard label (-1 = unsharded).
type ShardAddr struct {
	Addr  string
	Shard int
}

// ShardResolver is the optional shard-aware resolution surface: a
// resolver that also reports which keyspace partition each replica owns.
// When the balancer's resolver implements it (registry.Client does), the
// balancer builds a consistent-hash ring from the advertised shard IDs
// and calls carrying a shard key (WithShardKey) are routed to the owning
// shard's replicas.
type ShardResolver interface {
	LookupShards(ctx context.Context, service string) ([]ShardAddr, error)
}

// shardKeyCtx carries a call's shard routing key.
type shardKeyCtx struct{}

// WithShardKey returns a context that routes balanced calls by key: the
// balancer hashes the key onto the target service's shard ring and picks
// among the owner shard's replicas. Reads (GET/HEAD) fall back through
// sibling shards when no owner replica is pickable; writes stay pinned
// to the owner — landing a write on the wrong shard would split an
// order's history — and fail fast instead, which surfaces as a
// retryable error while the shard map converges. Services that publish
// no shard map ignore the key entirely.
//
// This is the programmatic form of "svc://persistence?key=...": the key
// rides the context so it composes with retries and hedging without URL
// rewriting on every attempt.
func WithShardKey(ctx context.Context, key string) context.Context {
	if key == "" {
		return ctx
	}
	return context.WithValue(ctx, shardKeyCtx{}, key)
}

// ShardKeyFrom extracts the shard routing key, if any.
func ShardKeyFrom(ctx context.Context) (string, bool) {
	key, ok := ctx.Value(shardKeyCtx{}).(string)
	return key, ok && key != ""
}

// DefaultBalancerCacheTTL bounds how long a resolved replica list is
// reused before the registry is consulted again. Connection failures and
// all-breakers-open refusals invalidate the cache early, so the TTL only
// governs how quickly *new* replicas start receiving traffic.
const DefaultBalancerCacheTTL = time.Second

// BalancerConfig tunes a Balancer. The zero value selects the defaults
// noted per field.
type BalancerConfig struct {
	// CacheTTL bounds replica-list reuse (DefaultBalancerCacheTTL).
	CacheTTL time.Duration
	// Outlier tunes passive outlier ejection (zero value = defaults on;
	// set Outlier.Disabled to turn ejection off).
	Outlier OutlierConfig
}

// Balancer resolves logical service names to live replicas and picks one
// per call with power-of-two-choices over in-flight counts: two random
// replicas are drawn and the less loaded wins, which tracks load far
// better than round-robin when replica speeds diverge, at O(1) cost.
// Lookup results are cached for CacheTTL and invalidated when a replica
// connection fails or every replica's breaker refuses, so routing reacts
// to churn faster than the TTL. Safe for concurrent use.
type Balancer struct {
	resolver Resolver
	ttl      time.Duration
	outlier  OutlierConfig

	mu       sync.Mutex
	services map[string]*balancedService
}

// balancedService is one logical service's routing state — the handle a
// call resolves once and then picks, acquires and observes through.
// Replica counters persist across refreshes so /metrics replica counters
// behave like Prometheus counters (monotonic, surviving churn).
type balancedService struct {
	b    *Balancer // resolver, cache TTL and outlier config
	name string

	mu         sync.Mutex
	addrs      []string
	fetched    time.Time
	stale      bool
	refreshing bool
	replicas   map[string]*replicaState

	// shards maps addr → owned shard for sharded services; ring is the
	// consistent-hash map rebuilt from the advertised shard IDs on every
	// adopt. Both are replaced wholesale, never mutated in place, so they
	// may be read outside the lock once loaded.
	shards map[string]int
	ring   *shardmap.Ring

	// lastSweep rate-limits the outlier ejection sweep (UnixNano).
	lastSweep atomic.Int64
}

// replicaState tracks one replica's routed traffic and health. The
// atomic fields sit on the pick/acquire hot path; the EWMA state behind
// mu is touched once per response plus during sweeps.
type replicaState struct {
	inflight atomic.Int64
	requests atomic.Int64
	hedges   atomic.Int64
	ejected  atomic.Bool

	mu           sync.Mutex
	samples      int64   // responses since (re-)admission
	ewmaLat      float64 // ns
	ewmaErr      float64 // 0..1
	ejectedUntil time.Time
	ejections    int64 // cumulative, for metrics
	streak       int64 // consecutive ejections, drives backoff
}

// ReplicaCounts is one replica's routed-traffic summary for metrics.
type ReplicaCounts struct {
	Requests int64 `json:"requests"`
	Inflight int64 `json:"inflight"`
	// Hedges counts hedge attempts routed to this replica.
	Hedges int64 `json:"hedges,omitempty"`
	// Ejected reports whether the replica is currently ejected by
	// outlier detection; Ejections counts cumulative ejections.
	Ejected   bool  `json:"ejected,omitempty"`
	Ejections int64 `json:"ejections,omitempty"`
	// EwmaLatencyMs and EwmaErrorRate are the health EWMAs ejection
	// judges on.
	EwmaLatencyMs float64 `json:"ewmaLatencyMs,omitempty"`
	EwmaErrorRate float64 `json:"ewmaErrorRate,omitempty"`
	// Shard is the keyspace partition this replica owns (sharded
	// services only).
	Shard *int `json:"shard,omitempty"`
}

// NewBalancer returns a balancer resolving through r.
func NewBalancer(r Resolver, cfg BalancerConfig) *Balancer {
	if cfg.CacheTTL <= 0 {
		cfg.CacheTTL = DefaultBalancerCacheTTL
	}
	return &Balancer{
		resolver: r,
		ttl:      cfg.CacheTTL,
		outlier:  cfg.Outlier.normalized(),
		services: map[string]*balancedService{},
	}
}

// service returns (allocating) the routing state for a logical name.
func (b *Balancer) service(name string) *balancedService {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.services[name]
	if s == nil {
		s = &balancedService{b: b, name: name, replicas: map[string]*replicaState{}}
		b.services[name] = s
	}
	return s
}

// candidates returns the live replica addresses for a service. Within
// the TTL the cached list is served lock-cheap. A merely *expired* list
// is served stale while a single background goroutine refreshes it — a
// slow or blackholed registry must never stall the request path for its
// timeout once routing is established. Only an explicitly invalidated
// list (connection failure, all-breakers-refused — evidence the list is
// rotten) or a first resolution blocks on the resolver; the per-service
// lock is held across that call so concurrent callers coalesce into one
// refresh instead of stampeding the registry. A failed synchronous
// refresh falls back to the last known list when one exists — stale
// routing beats none while the registry itself is unreachable.
func (s *balancedService) candidates(ctx context.Context) ([]string, error) {
	s.mu.Lock()
	if !s.stale && len(s.addrs) > 0 {
		addrs := append([]string(nil), s.addrs...)
		if time.Since(s.fetched) >= s.b.ttl && !s.refreshing {
			s.refreshing = true
			go s.refreshAsync()
		}
		s.mu.Unlock()
		return addrs, nil
	}
	defer s.mu.Unlock()
	addrs, shards, err := s.b.resolve(withoutTrace(ctx), s.name)
	if err != nil {
		if len(s.addrs) > 0 {
			return append([]string(nil), s.addrs...), nil
		}
		return nil, err
	}
	s.adoptLocked(addrs, shards)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("httpkit: no live replicas of %s", s.name)
	}
	return append([]string(nil), addrs...), nil
}

// resolve consults the resolver, preferring the shard-aware surface when
// the resolver offers one. The shard map is nil for unsharded services.
func (b *Balancer) resolve(ctx context.Context, name string) ([]string, map[string]int, error) {
	sr, ok := b.resolver.(ShardResolver)
	if !ok {
		addrs, err := b.resolver.Lookup(ctx, name)
		return addrs, nil, err
	}
	insts, err := sr.LookupShards(ctx, name)
	if err != nil {
		return nil, nil, err
	}
	addrs := make([]string, len(insts))
	var shards map[string]int
	for i, in := range insts {
		addrs[i] = in.Addr
		if in.Shard >= 0 {
			if shards == nil {
				shards = make(map[string]int, len(insts))
			}
			shards[in.Addr] = in.Shard
		}
	}
	return addrs, shards, nil
}

// refreshAsync re-resolves a service off the request path. On failure
// the stale list keeps serving and fetched is bumped anyway, so a down
// registry is probed at most once per TTL rather than once per call.
func (s *balancedService) refreshAsync() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	addrs, shards, err := s.b.resolve(ctx, s.name)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshing = false
	if err != nil || len(addrs) == 0 {
		s.fetched = time.Now()
		return
	}
	s.adoptLocked(addrs, shards)
}

// adoptLocked installs a freshly resolved replica list (s.mu held). The
// shard ring is rebuilt from the advertised shard IDs; because the ring
// is a pure function of the ID set, replica churn within a shard leaves
// every key's owner untouched.
func (s *balancedService) adoptLocked(addrs []string, shards map[string]int) {
	s.addrs = append([]string(nil), addrs...)
	s.fetched = time.Now()
	s.stale = false
	for _, addr := range addrs {
		if s.replicas[addr] == nil {
			s.replicas[addr] = &replicaState{}
		}
	}
	s.shards = shards
	if len(shards) == 0 {
		s.ring = nil
		return
	}
	ids := make([]int, 0, len(shards))
	for _, id := range shards {
		ids = append(ids, id)
	}
	s.ring = shardmap.New(ids, 0)
}

// invalidate marks the cached replica list stale so the next call
// re-resolves. Called on connection failures and all-replicas-refused so a
// dead replica stops receiving picks before the TTL lapses.
func (s *balancedService) invalidate() {
	s.mu.Lock()
	s.stale = true
	s.mu.Unlock()
}

// Drop removes one replica from a service's cached list immediately —
// the push-side counterpart of invalidate for planned scale-downs. A
// draining replica still answers requests, so connection failures never
// purge it from the cache; without Drop it keeps receiving its traffic
// share until the TTL lapses, stretching every drain by a full cache
// lifetime. The surviving list stays cached (no refresh stampede); a
// resolver that still advertises the address will re-add it on the next
// refresh.
func (b *Balancer) Drop(name, addr string) {
	s := b.service(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.addrs[:0]
	for _, a := range s.addrs {
		if a != addr {
			kept = append(kept, a)
		}
	}
	s.addrs = kept
	if _, ok := s.shards[addr]; !ok {
		return
	}
	// Rebuild the shard map without the dropped replica (copy, never
	// mutate: readers hold references outside the lock). The ring only
	// changes when addr was its shard's last replica.
	shards := make(map[string]int, len(s.shards))
	for a, id := range s.shards {
		if a != addr {
			shards[a] = id
		}
	}
	s.shards = shards
	ids := make([]int, 0, len(shards))
	for _, id := range shards {
		ids = append(ids, id)
	}
	s.ring = shardmap.New(ids, 0)
}

// pick chooses a replica from candidates with power-of-two-choices over
// in-flight counts, preferring addresses not in avoid (replicas that
// already failed this logical call); when every candidate is in avoid the
// full set is used — a retry against a previously-failed replica still
// beats refusing the call. Ejected outliers are skipped the same way:
// preferred out, but never to the point of refusing when nothing else is
// admissible.
//
// When key is non-empty and the service publishes a shard map, the pool
// is first narrowed to the replicas of the key's owner shard. Reads
// (readFallback=true) widen back to the full candidate set when no owner
// replica is pickable — any shard can serve a read, at worst with a
// cross-shard hop. Writes never widen: pick returns "" and the caller
// surfaces the routing failure rather than landing a write on a
// non-owner.
func (s *balancedService) pick(candidates []string, avoid map[string]bool, key string, readFallback bool) string {
	if key != "" {
		if owners, sharded := s.shardOwners(candidates, key); sharded {
			if addr := s.pickFrom(owners, avoid); addr != "" || !readFallback {
				return addr
			}
		}
	}
	return s.pickFrom(candidates, avoid)
}

// shardOwners narrows candidates to the replicas owning key's shard.
// sharded=false means the service publishes no shard map and the key is
// moot.
func (s *balancedService) shardOwners(candidates []string, key string) (owners []string, sharded bool) {
	s.mu.Lock()
	ring, shards := s.ring, s.shards
	s.mu.Unlock()
	if ring == nil {
		return nil, false
	}
	owner := ring.Owner(key)
	for _, a := range candidates {
		if id, ok := shards[a]; ok && id == owner {
			owners = append(owners, a)
		}
	}
	return owners, true
}

// pickFrom is the shard-blind p2c pick over a pool.
func (s *balancedService) pickFrom(candidates []string, avoid map[string]bool) string {
	pool := candidates
	if fresh := without(candidates, avoid); len(fresh) > 0 {
		pool = fresh
	}
	if len(pool) < 2 {
		if len(pool) == 0 {
			return ""
		}
		return pool[0]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pool = s.skipEjectedLocked(pool)
	if len(pool) == 1 {
		return pool[0]
	}
	i := rand.Intn(len(pool))
	j := rand.Intn(len(pool) - 1)
	if j >= i {
		j++
	}
	ri, rj := s.replicas[pool[i]], s.replicas[pool[j]]
	if ri == nil || rj == nil {
		// Unknown replica (resolver raced a refresh): either choice is fine.
		return pool[i]
	}
	if rj.inflight.Load() < ri.inflight.Load() {
		return pool[j]
	}
	return pool[i]
}

// Stick is the pick for callers that hold state on a replica (a browser
// session's login, say) and route outside the client pipeline: current is
// kept while the service still lists it and outlier detection has not
// ejected it; otherwise — or when current is empty — a fresh replica is
// picked. Such callers report each outcome through Observe.
func (b *Balancer) Stick(ctx context.Context, name, current string) (string, error) {
	s := b.service(name)
	addrs, err := s.candidates(ctx)
	if err != nil {
		return "", err
	}
	if slices.Contains(addrs, current) && !s.replica(current).ejected.Load() {
		return current, nil
	}
	return s.pickFrom(addrs, nil), nil
}

// skipEjectedLocked filters currently-ejected replicas out of a pick pool
// (s.mu held), unless that would empty it (the sweep's floor makes that
// rare, but a pool shrunk by avoid-filtering can consist solely of
// ejected replicas).
func (s *balancedService) skipEjectedLocked(pool []string) []string {
	ejected := func(a string) bool {
		r := s.replicas[a]
		return r != nil && r.ejected.Load()
	}
	if !slices.ContainsFunc(pool, ejected) {
		return pool
	}
	fresh := make([]string, 0, len(pool))
	for _, a := range pool {
		if !ejected(a) {
			fresh = append(fresh, a)
		}
	}
	if len(fresh) == 0 {
		return pool
	}
	return fresh
}

// without returns addrs minus the members of skip (addrs itself when skip
// is empty).
func without(addrs []string, skip map[string]bool) []string {
	if len(skip) == 0 {
		return addrs
	}
	kept := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if !skip[a] {
			kept = append(kept, a)
		}
	}
	return kept
}

// replica returns (allocating) one replica's state.
func (s *balancedService) replica(addr string) *replicaState {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.replicas[addr]
	if r == nil {
		r = &replicaState{}
		s.replicas[addr] = r
	}
	return r
}

// acquire counts a routed request against a replica and returns its
// state; the caller ends the in-flight accounting (inflight.Add(-1)) and
// feeds the outcome to observe.
func (s *balancedService) acquire(addr string) *replicaState {
	r := s.replica(addr)
	r.requests.Add(1)
	r.inflight.Add(1)
	return r
}

// Snapshot reports routed traffic per service per replica. Replicas that
// have left the pool keep their cumulative request counts, mirroring
// Prometheus counter semantics.
func (b *Balancer) Snapshot() map[string]map[string]ReplicaCounts {
	b.mu.Lock()
	services := make([]*balancedService, 0, len(b.services))
	for _, s := range b.services {
		services = append(services, s)
	}
	b.mu.Unlock()
	out := make(map[string]map[string]ReplicaCounts, len(services))
	for _, s := range services {
		s.mu.Lock()
		m := make(map[string]ReplicaCounts, len(s.replicas))
		for addr, r := range s.replicas {
			rc := ReplicaCounts{
				Requests: r.requests.Load(),
				Inflight: r.inflight.Load(),
				Hedges:   r.hedges.Load(),
				Ejected:  r.ejected.Load(),
			}
			r.mu.Lock()
			rc.Ejections = r.ejections
			rc.EwmaLatencyMs = r.ewmaLat / 1e6
			rc.EwmaErrorRate = r.ewmaErr
			r.mu.Unlock()
			if id, ok := s.shards[addr]; ok {
				shard := id
				rc.Shard = &shard
			}
			m[addr] = rc
		}
		s.mu.Unlock()
		if len(m) > 0 {
			out[s.name] = m
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// splitBalancedURL splits "svc://image/image/7?size=icon" into the logical
// service ("image") and the trailing path+query ("/image/7?size=icon").
// ok is false for non-balanced URLs.
func splitBalancedURL(url string) (service, rest string, ok bool) {
	const prefix = BalancedScheme + "://"
	if !strings.HasPrefix(url, prefix) {
		return "", "", false
	}
	tail := url[len(prefix):]
	if i := strings.IndexAny(tail, "/?"); i >= 0 {
		return tail[:i], tail[i:], true
	}
	return tail, "", true
}
