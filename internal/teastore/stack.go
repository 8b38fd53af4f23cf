// Package teastore boots the complete store — all six services wired
// together over real HTTP on loopback — in one process. It is the
// embedded/all-in-one deployment used by cmd/teastore, the examples, and
// the integration tests.
package teastore

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/scalectl"
	"repro/internal/services/auth"
	imagesvc "repro/internal/services/image"
	"repro/internal/services/persistence"
	"repro/internal/services/recommender"
	"repro/internal/services/registry"
	"repro/internal/services/webui"
)

// ResilienceConfig tunes the stack-wide resilience layer. Zero fields
// select the defaults noted per field.
type ResilienceConfig struct {
	// Retry is the inter-service retry policy (httpkit.DefaultRetryPolicy).
	Retry httpkit.RetryPolicy
	// Breaker is the per-destination circuit-breaker config
	// (httpkit.DefaultBreakerConfig).
	Breaker httpkit.BreakerConfig
	// MaxInflight bounds concurrently served requests per service before
	// load shedding kicks in (0 → DefaultMaxInflight; negative → no
	// shedding).
	MaxInflight int
	// ClientTimeout bounds each inter-service call attempt (0 → 10s).
	ClientTimeout time.Duration
	// Hedge tunes budgeted hedging of idempotent inter-service calls
	// (zero fields take httpkit's defaults). Hedging is on by
	// default; set DisableHedge to turn it off.
	Hedge httpkit.HedgePolicy
	// DisableHedge turns request hedging off entirely.
	DisableHedge bool
	// Outlier tunes the client-side balancers' passive outlier ejection
	// (zero fields → httpkit defaults); set Outlier.Disabled to keep
	// gray replicas in rotation.
	Outlier httpkit.OutlierConfig
}

// DefaultMaxInflight is the per-service admission bound: generous enough
// for the paper's closed-loop populations, small enough that a saturated
// service sheds instead of queueing toward its 10s timeouts.
const DefaultMaxInflight = 512

// maxInflight resolves the configured admission bound.
func (r ResilienceConfig) maxInflight() int {
	switch {
	case r.MaxInflight > 0:
		return r.MaxInflight
	case r.MaxInflight < 0:
		return 0 // shedding disabled
	default:
		return DefaultMaxInflight
	}
}

// clientTimeout resolves the per-attempt call timeout.
func (r ResilienceConfig) clientTimeout() time.Duration {
	if r.ClientTimeout > 0 {
		return r.ClientTimeout
	}
	return 10 * time.Second
}

// Config parameterizes a stack boot.
type Config struct {
	// Catalog seeds the store; zero value means db.DefaultGenerateSpec.
	Catalog db.GenerateSpec
	// Algorithm selects the recommender ("popularity", "slopeone",
	// "coocc"); empty means popularity.
	Algorithm string
	// Key signs sessions; empty means a fixed development key.
	Key []byte
	// Host binds listeners; empty means 127.0.0.1 with ephemeral ports.
	Host string
	// ImageCacheBytes bounds the image cache (0 → 64 MiB).
	ImageCacheBytes int64
	// RegistryTTL is the discovery lease duration (0 → registry.DefaultTTL).
	// The stack heartbeats live services at TTL/3 so registrations survive
	// long runs; tests shorten it to observe expiry quickly.
	RegistryTTL time.Duration
	// Replicas maps service names ("auth", "persistence", "recommender",
	// "image", "webui") to instance counts booted up front; absent or zero
	// means one. Every replica gets its own listener, registers with the
	// registry, and heartbeats independently; inter-service calls spread
	// across replicas via registry-backed client-side load balancing. The
	// registry itself cannot be replicated (it IS the routing plane).
	// Further replicas can be added at runtime with Stack.StartReplica —
	// directly or via the autoscale reconciler.
	Replicas map[string]int
	// BalancerCacheTTL bounds how long outbound clients reuse a resolved
	// replica list before re-consulting the registry (0 →
	// httpkit.DefaultBalancerCacheTTL). Connection failures invalidate
	// the cache early regardless.
	BalancerCacheTTL time.Duration
	// Resilience tunes retries, breakers, and load shedding.
	Resilience ResilienceConfig
	// Chaos maps service names to fault-injection specs applied at boot
	// (to every replica of the service, including replicas started later);
	// use Stack.SetChaos or Stack.SetReplicaChaos to flip faults on
	// mid-run.
	Chaos map[string]httpkit.ChaosConfig
	// ServiceMaxInflight overrides Resilience.MaxInflight per service:
	// positive values set that service's admission bound, negative values
	// disable its shedding, zero/absent inherits the stack-wide setting.
	// Replicas started at runtime inherit the same bound, so a throttled
	// service stays throttled as it scales.
	ServiceMaxInflight map[string]int
	// Autoscale, when non-nil, runs the scalectl reconciler over this
	// stack: a "scalectl" control-plane service is booted, registered in
	// the registry, and serves the reconciler's /status plus
	// teastore_replicas_desired/actual gauges on /metrics, while the
	// reconcile loop scales the configured services between their bounds.
	Autoscale *scalectl.Config
	// PersistenceShards partitions the order plane into N shard-sibling
	// stores (shared catalog, each owning one consistent-hash partition of
	// the user keyspace). 0 or 1 means a single unsharded store. Every
	// persistence replica registers with its shard label, publishing the
	// shard map through the registry, and the stack boots at least one
	// replica per shard.
	PersistenceShards int
	// Commit tunes the persistence write pipeline: group-commit batch
	// size, per-batch flush cost, and the pending bound that backpressures
	// writers. The zero value selects db defaults (no simulated flush
	// cost).
	Commit db.CommitConfig
}

// replicableServices are the service names Config.Replicas may scale.
var replicableServices = map[string]bool{
	"auth": true, "persistence": true, "recommender": true, "image": true, "webui": true,
}

// replicas resolves the configured instance count for a service.
func (c Config) replicas(service string) int {
	if n := c.Replicas[service]; n > 1 {
		return n
	}
	return 1
}

// validateReplicas rejects replica counts for unknown services and for the
// registry, whose in-memory table cannot be replicated.
func (c Config) validateReplicas() error {
	for name, n := range c.Replicas {
		if !replicableServices[name] {
			return fmt.Errorf("teastore: cannot replicate %q (replicable: auth, persistence, recommender, image, webui)", name)
		}
		if n < 0 {
			return fmt.Errorf("teastore: negative replica count %d for %s", n, name)
		}
	}
	for name := range c.ServiceMaxInflight {
		if !replicableServices[name] && name != "registry" {
			return fmt.Errorf("teastore: ServiceMaxInflight for unknown service %q", name)
		}
	}
	if c.Autoscale != nil {
		for name := range c.Autoscale.Services {
			if !replicableServices[name] {
				return fmt.Errorf("teastore: cannot autoscale %q (replicable: auth, persistence, recommender, image, webui)", name)
			}
		}
	}
	if c.PersistenceShards < 0 {
		return fmt.Errorf("teastore: negative PersistenceShards %d", c.PersistenceShards)
	}
	return nil
}

// Stack is a running all-in-one TeaStore.
type Stack struct {
	// mu guards servers and balancers: with runtime scaling both mutate
	// while heartbeats, stats, and the reconciler read them.
	mu        sync.RWMutex
	servers   []*httpkit.Server
	balancers []*httpkit.Balancer

	cfg     Config
	reg     *registry.Registry
	stopSwp func()
	stopHB  func()

	// boot holds one factory per replicable service, built during Start and
	// immutable afterward — what StartReplica uses to add capacity at
	// runtime with exactly the boot-time wiring.
	boot map[string]func() (*httpkit.Server, error)

	autoscaler *scalectl.Controller
	stopCtl    func()

	// serveErr records the first listener death across the stack.
	errMu    sync.Mutex
	serveErr error

	// cluster is the sharded order plane; shardByAddr remembers which
	// shard each persistence listener registered as, so replacements can
	// re-cover the least-replicated shard.
	cluster     *persistence.Cluster
	shardByAddr map[string]int

	// Store is shard 0's store — the whole order plane when unsharded.
	// Sharded consumers should use PersistenceCluster.
	Store *db.Store

	RegistryURL    string
	AuthURL        string
	PersistenceURL string
	RecommenderURL string
	ImageURL       string
	WebUIURL       string
	// ScalectlURL is the autoscale control plane's base URL ("" unless
	// Config.Autoscale was set).
	ScalectlURL string
}

// Start boots every service — Config.Replicas instances of each — seeds
// the catalog, trains the recommender, and registers every instance with
// the registry. Inter-service calls go through svc:// logical URLs
// resolved per attempt by a registry-backed client-side balancer, so
// traffic spreads across replicas and fails over when one dies. The
// per-service boot recipes are kept, so replicas can also be added after
// boot (StartReplica) and drained away (ScaleDown) — manually or by the
// reconciler when Config.Autoscale is set.
func Start(cfg Config) (*Stack, error) {
	if cfg.Host == "" {
		cfg.Host = "127.0.0.1"
	}
	if len(cfg.Key) == 0 {
		cfg.Key = []byte("teastore-dev-key-0123456789")
	}
	if cfg.Catalog.Categories == 0 {
		cfg.Catalog = db.DefaultGenerateSpec()
	}
	if err := cfg.validateReplicas(); err != nil {
		return nil, err
	}
	shards := cfg.PersistenceShards
	if shards < 1 {
		shards = 1
	}
	stores := make([]*db.Store, shards)
	stores[0] = db.NewStoreCommit(cfg.Commit)
	for i := 1; i < shards; i++ {
		stores[i] = stores[0].NewShardSibling()
	}
	st := &Stack{
		Store:       stores[0],
		cluster:     persistence.NewCluster(stores),
		shardByAddr: map[string]int{},
		cfg:         cfg,
	}
	fail := func(err error) (*Stack, error) {
		st.Shutdown(context.Background())
		return nil, err
	}

	// Registry first: it is the routing plane everything else resolves
	// through.
	st.reg = registry.New(cfg.RegistryTTL)
	st.stopSwp = st.reg.StartSweeper(time.Second)
	regSrv, err := st.listen("registry", st.reg.Mux())
	if err != nil {
		return fail(err)
	}
	st.RegistryURL = regSrv.URL()

	// Every service gets its own outbound client — so /metrics attributes
	// retries, breaker trips, and per-replica routing to the caller that
	// performed them — but all balancers resolve through one registry
	// client hitting the real HTTP discovery API. The stack keeps every
	// balancer it hands out so planned drains can push replica removals
	// into the routing caches instead of waiting out the TTL.
	resolver := registry.NewClient(st.RegistryURL, httpkit.NewClient(2*time.Second))
	newClient := func() *httpkit.Client {
		b := httpkit.NewBalancer(resolver, httpkit.BalancerConfig{
			CacheTTL: cfg.BalancerCacheTTL,
			Outlier:  cfg.Resilience.Outlier,
		})
		st.mu.Lock()
		st.balancers = append(st.balancers, b)
		st.mu.Unlock()
		opts := []httpkit.ClientOption{
			httpkit.WithRetry(cfg.Resilience.Retry),
			httpkit.WithBreaker(cfg.Resilience.Breaker),
			httpkit.WithBalancer(b),
		}
		if !cfg.Resilience.DisableHedge {
			opts = append(opts, httpkit.WithHedge(cfg.Resilience.Hedge))
		}
		return httpkit.NewClient(cfg.Resilience.clientTimeout(), opts...)
	}

	if err := st.cluster.Generate(cfg.Catalog, auth.HashPassword); err != nil {
		return fail(fmt.Errorf("teastore: seeding catalog: %w", err))
	}

	// One boot recipe per replicable service. Each call boots one fresh
	// replica — own listener, own outbound client, own model/cache — and
	// registers it, whether invoked during Start or months into a run by
	// the reconciler.
	st.boot = map[string]func() (*httpkit.Server, error){
		// Persistence replicas share the whole cluster (every replica can
		// execute against any shard's store in-process — ownership is
		// enforced at the cluster, not the listener), but each registers
		// with one shard label so the balancers route a user's writes to
		// the replica fronting the owning shard. New replicas cover the
		// least-replicated shard, so boot round-robins 0..n-1 and a
		// replacement adopts a killed replica's shard.
		"persistence": func() (*httpkit.Server, error) {
			shard := st.nextPersistenceShard()
			return st.listenShard("persistence", persistence.NewSharded(st.cluster, shard).Mux(), &shard)
		},
		// Auth verifies against persistence.
		"auth": func() (*httpkit.Server, error) {
			hc := newClient()
			svc, err := auth.New(cfg.Key, persistence.NewClient(httpkit.BalancedURL("persistence"), hc))
			if err != nil {
				return nil, err
			}
			srv, err := st.listen("auth", svc.Mux())
			if err != nil {
				return nil, err
			}
			srv.AttachClient(hc)
			return srv, nil
		},
		// Recommender replicas each train their own model on the order
		// history, exactly as independently deployed instances would.
		"recommender": func() (*httpkit.Server, error) {
			hc := newClient()
			svc, err := recommender.New(cfg.Algorithm, persistence.NewClient(httpkit.BalancedURL("persistence"), hc))
			if err != nil {
				return nil, err
			}
			if _, err := svc.Train(context.Background()); err != nil {
				return nil, err
			}
			srv, err := st.listen("recommender", svc.Mux())
			if err != nil {
				return nil, err
			}
			srv.AttachClient(hc)
			return srv, nil
		},
		// Image provider replicas each own an independent cache.
		"image": func() (*httpkit.Server, error) {
			return st.listen("image", imagesvc.New(cfg.ImageCacheBytes).Mux())
		},
		// WebUI fans out to everything through the balancer.
		"webui": func() (*httpkit.Server, error) {
			hc := newClient()
			ui, err := webui.New(webui.Backends{
				Auth:        auth.NewClient(httpkit.BalancedURL("auth"), hc),
				Persistence: persistence.NewClient(httpkit.BalancedURL("persistence"), hc),
				Recommender: recommender.NewClient(httpkit.BalancedURL("recommender"), hc),
				Image:       imagesvc.NewClient(httpkit.BalancedURL("image"), hc),
			})
			if err != nil {
				return nil, err
			}
			srv, err := st.listen("webui", ui.Mux())
			if err != nil {
				return nil, err
			}
			srv.AttachClient(hc)
			return srv, nil
		},
	}

	// Boot order matters: each instance registers as soon as it listens,
	// and later services resolve earlier ones through the registry — the
	// recommender trains against svc://persistence before webui exists.
	for _, name := range []string{"persistence", "auth", "recommender", "image", "webui"} {
		n := cfg.replicas(name)
		if name == "persistence" && n < shards {
			// Every shard needs a fronting replica or its partition of the
			// keyspace has no owner in the routing plane.
			n = shards
		}
		for i := 0; i < n; i++ {
			srv, err := st.boot[name]()
			if err != nil {
				return fail(err)
			}
			switch name {
			case "persistence":
				if st.PersistenceURL == "" {
					st.PersistenceURL = srv.URL()
				}
			case "auth":
				if st.AuthURL == "" {
					st.AuthURL = srv.URL()
				}
			case "recommender":
				if st.RecommenderURL == "" {
					st.RecommenderURL = srv.URL()
				}
			case "image":
				if st.ImageURL == "" {
					st.ImageURL = srv.URL()
				}
			case "webui":
				if st.WebUIURL == "" {
					st.WebUIURL = srv.URL()
				}
			}
		}
	}

	// A listener can die between its Start and now (port snatched,
	// fd exhaustion); catch that before declaring the stack up. Runtime
	// deaths are watched per server by track().
	for _, srv := range st.liveServers() {
		if err := srv.Err(); err != nil {
			return fail(fmt.Errorf("teastore: %s listener died during boot: %w", srv.Name(), err))
		}
	}

	// Keep the leases alive: without heartbeats every registration
	// silently expires after one TTL and both remote discovery (loadgen
	// -registry) and the routing plane go dark on long-running stacks.
	ttl := cfg.RegistryTTL
	if ttl <= 0 {
		ttl = registry.DefaultTTL
	}
	st.stopHB = st.startHeartbeats(ttl / 3)

	// Autoscale control plane last: it scrapes the services booted above
	// and must not begin scaling until the stack is complete.
	if cfg.Autoscale != nil {
		ctl, err := scalectl.New(st, *cfg.Autoscale)
		if err != nil {
			return fail(err)
		}
		ctlSrv, err := st.listen("scalectl", ctl.Mux())
		if err != nil {
			return fail(err)
		}
		ctlSrv.SetExtraMetrics(ctl.Gauges)
		st.autoscaler = ctl
		st.ScalectlURL = ctlSrv.URL()
		st.stopCtl = ctl.Start()
	}
	return st, nil
}

// listen boots one named listener with the stack-wide middleware stack
// (admission bound, chaos spec), tracks it, and registers it with the
// registry. Used for the initial boot and for runtime StartReplica calls
// alike.
func (s *Stack) listen(name string, mux *http.ServeMux) (*httpkit.Server, error) {
	return s.listenShard(name, mux, nil)
}

// listenShard is listen with a shard label on the registration — how a
// persistence replica publishes which keyspace partition it fronts.
func (s *Stack) listenShard(name string, mux *http.ServeMux, shard *int) (*httpkit.Server, error) {
	srv, err := httpkit.NewServer(name, s.cfg.Host+":0", mux)
	if err != nil {
		return nil, err
	}
	srv.SetMaxInflight(s.maxInflightFor(name))
	if chaos, ok := s.cfg.Chaos[name]; ok {
		srv.SetChaos(chaos)
	}
	srv.Start()
	s.track(srv)
	if shard != nil {
		s.mu.Lock()
		s.shardByAddr[srv.Addr()] = *shard
		s.mu.Unlock()
	}
	s.reg.Register(registry.Registration{Service: name, Address: srv.Addr(), Shard: shard})
	return srv, nil
}

// nextPersistenceShard picks the shard with the fewest live fronting
// replicas (lowest ID on ties): boot assigns 0..n-1 round-robin, and a
// replacement replica re-covers the shard a kill left unfronted.
func (s *Stack) nextPersistenceShard() int {
	n := s.cluster.NumShards()
	counts := make([]int, n)
	s.mu.RLock()
	for _, srv := range s.servers {
		if srv.Name() != "persistence" {
			continue
		}
		if sh, ok := s.shardByAddr[srv.Addr()]; ok && sh >= 0 && sh < n {
			counts[sh]++
		}
	}
	s.mu.RUnlock()
	best := 0
	for i := 1; i < n; i++ {
		if counts[i] < counts[best] {
			best = i
		}
	}
	return best
}

// maxInflightFor resolves a service's admission bound: the per-service
// override when present, else the stack-wide resilience setting.
func (s *Stack) maxInflightFor(name string) int {
	if n, ok := s.cfg.ServiceMaxInflight[name]; ok && n != 0 {
		if n < 0 {
			return 0 // shedding disabled for this service
		}
		return n
	}
	return s.cfg.Resilience.maxInflight()
}

// track appends a server to the live set and watches its serve loop: the
// first fatal Serve error across the stack is recorded for Err and
// logged. The watcher exits when the server's serve goroutine does, so
// stacks don't leak goroutines.
func (s *Stack) track(srv *httpkit.Server) {
	s.mu.Lock()
	s.servers = append(s.servers, srv)
	s.mu.Unlock()
	go func() {
		err, ok := <-srv.ErrChan()
		if !ok {
			return
		}
		s.errMu.Lock()
		if s.serveErr == nil {
			s.serveErr = fmt.Errorf("teastore: %s listener died: %w", srv.Name(), err)
		}
		s.errMu.Unlock()
		log.Printf("teastore: FATAL: %s listener died: %v", srv.Name(), err)
	}()
}

// untrack removes a stopped server from the live set so stats,
// heartbeats, and the reconciler stop seeing it.
func (s *Stack) untrack(srv *httpkit.Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.servers[:0]
	for _, x := range s.servers {
		if x != srv {
			kept = append(kept, x)
		}
	}
	s.servers = kept
}

// liveServers snapshots the live server list.
func (s *Stack) liveServers() []*httpkit.Server {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*httpkit.Server(nil), s.servers...)
}

// Err reports the first listener death observed across the stack, nil
// while every service is (or was gracefully shut) down.
func (s *Stack) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.serveErr
}

// startHeartbeats refreshes the lease of every service that is still
// serving. A shut-down service is skipped so its registration lapses
// after one TTL, and an explicitly deregistered one is never re-created
// (Heartbeat refuses unknown registrations).
func (s *Stack) startHeartbeats(period time.Duration) (stop func()) {
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
				s.heartbeatOnce()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

func (s *Stack) heartbeatOnce() {
	for _, srv := range s.liveServers() {
		if !srv.Ready() {
			continue
		}
		s.reg.Heartbeat(registry.Registration{Service: srv.Name(), Address: srv.Addr()})
	}
}

// Services lists the running services (name → first replica's base URL).
// Use Instances for the full per-replica listing.
func (s *Stack) Services() map[string]string {
	out := map[string]string{}
	for _, srv := range s.liveServers() {
		if _, ok := out[srv.Name()]; !ok {
			out[srv.Name()] = srv.URL()
		}
	}
	return out
}

// ServiceInstance is one running replica of a service.
type ServiceInstance struct {
	Service string
	Addr    string
	URL     string
}

// Instances lists every running replica in boot order.
func (s *Stack) Instances() []ServiceInstance {
	live := s.liveServers()
	out := make([]ServiceInstance, 0, len(live))
	for _, srv := range live {
		out = append(out, ServiceInstance{Service: srv.Name(), Addr: srv.Addr(), URL: srv.URL()})
	}
	return out
}

// ServiceNames lists the distinct live service names in boot order —
// the scalectl.Target scrape surface.
func (s *Stack) ServiceNames() []string {
	var out []string
	seen := map[string]bool{}
	for _, srv := range s.liveServers() {
		if !seen[srv.Name()] {
			seen[srv.Name()] = true
			out = append(out, srv.Name())
		}
	}
	return out
}

// ReplicaURLs lists a service's live replica base URLs in boot order —
// the scalectl.Target replica view.
func (s *Stack) ReplicaURLs(service string) []string {
	replicas := s.serversOf(service)
	out := make([]string, 0, len(replicas))
	for _, srv := range replicas {
		out = append(out, srv.URL())
	}
	return out
}

// serversOf lists a service's replicas in boot order.
func (s *Stack) serversOf(name string) []*httpkit.Server {
	var out []*httpkit.Server
	for _, srv := range s.liveServers() {
		if srv.Name() == name {
			out = append(out, srv)
		}
	}
	return out
}

// replica finds one replica of a service by boot index.
func (s *Stack) replica(name string, index int) (*httpkit.Server, error) {
	replicas := s.serversOf(name)
	if len(replicas) == 0 {
		return nil, fmt.Errorf("teastore: no service %q", name)
	}
	if index < 0 || index >= len(replicas) {
		return nil, fmt.Errorf("teastore: %s has %d replicas, no index %d", name, len(replicas), index)
	}
	return replicas[index], nil
}

// StartReplica boots and registers one new replica of a running service
// using its boot-time recipe — the scale-up primitive the reconciler
// (and operators via the control plane) drive at runtime. The replica
// inherits the service's admission bound and chaos spec, registers as
// soon as it listens, and starts receiving traffic on the balancers'
// next refresh (at most one cache TTL later).
func (s *Stack) StartReplica(service string) error {
	if !replicableServices[service] {
		return fmt.Errorf("teastore: cannot replicate %q (replicable: auth, persistence, recommender, image, webui)", service)
	}
	if s.boot == nil {
		return fmt.Errorf("teastore: stack not started")
	}
	srv, err := s.boot[service]()
	if err != nil {
		return fmt.Errorf("teastore: starting %s replica: %w", service, err)
	}
	if err := srv.Err(); err != nil {
		return fmt.Errorf("teastore: new %s replica died during boot: %w", service, err)
	}
	return nil
}

// ScaleDown gracefully drains and stops the newest replica of a service,
// refusing to remove the last one. This is the planned shrink the
// reconciler uses: unlike a crash, no request should fail.
func (s *Stack) ScaleDown(ctx context.Context, service string) error {
	replicas := s.serversOf(service)
	switch {
	case len(replicas) == 0:
		return fmt.Errorf("teastore: no service %q", service)
	case len(replicas) == 1:
		return fmt.Errorf("teastore: refusing to stop the last %s replica", service)
	}
	return s.drainAndStop(ctx, replicas[len(replicas)-1])
}

// DrainReplica gracefully removes the specific replica serving at url
// (base URL or host:port) — the replacement primitive the autoscale
// reconciler drives as a scalectl.ReplicaDrainer: unlike ScaleDown it
// retires a *chosen* sick replica, not the newest one. It refuses to
// drain the last replica of a service.
func (s *Stack) DrainReplica(ctx context.Context, service, url string) error {
	replicas := s.serversOf(service)
	if len(replicas) == 0 {
		return fmt.Errorf("teastore: no service %q", service)
	}
	var victim *httpkit.Server
	for _, srv := range replicas {
		if srv.URL() == url || srv.Addr() == url {
			victim = srv
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("teastore: no %s replica at %s", service, url)
	}
	if len(replicas) == 1 {
		return fmt.Errorf("teastore: refusing to drain the last %s replica", service)
	}
	return s.drainAndStop(ctx, victim)
}

// Stack is the reconciler's replacement-capable target.
var _ scalectl.ReplicaDrainer = (*Stack)(nil)

// KillReplica abruptly closes one replica the way a crashing process
// would: no deregistration — the registry lease lingers until it
// expires, exactly as a real crash leaves it — and no drain, so
// in-flight requests die mid-stream and callers keep picking the dead
// address until their caches turn over or their breakers trip. The
// stack stops tracking the corpse (the process is gone), which is what
// lets the reconciler notice the capacity dip and restore its min bound.
func (s *Stack) KillReplica(service string, index int) error {
	srv, err := s.replica(service, index)
	if err != nil {
		return err
	}
	killErr := srv.Kill()
	s.untrack(srv)
	return killErr
}

// drainAndStop removes one replica without failing its in-flight work:
// deregister (new lookups skip it), push the removal into every routing
// cache (no new picks before the TTL lapses), wait — bounded by ctx —
// for requests already inside to finish, then close the listener and
// drop the server from the live set. Requests that raced the very last
// step die on a closed connection and are absorbed by the callers'
// idempotent retries.
func (s *Stack) drainAndStop(ctx context.Context, srv *httpkit.Server) error {
	s.deregister(srv)
	s.mu.RLock()
	balancers := append([]*httpkit.Balancer(nil), s.balancers...)
	s.mu.RUnlock()
	for _, b := range balancers {
		b.Drop(srv.Name(), srv.Addr())
	}
	// In-stack balancers were just Drop()ed, but external clients (loadgen
	// -registry, the examples) only pull: they keep picking this replica
	// until their cached list expires. Keep serving for one balancer TTL so
	// their stale picks land on an open listener, then wait out the
	// in-flight work.
	linger := s.cfg.BalancerCacheTTL
	if linger <= 0 {
		linger = httpkit.DefaultBalancerCacheTTL
	}
	select {
	case <-ctx.Done():
	case <-time.After(linger):
	}
	waitInflightZero(ctx, srv)
	err := srv.Shutdown(ctx)
	s.untrack(srv)
	return err
}

// waitInflightZero polls a server's in-flight gauge until it has been
// zero for a short quiet window, giving up when ctx expires (the caller
// still shuts down — a bounded drain beats a wedged one). The quiet
// window absorbs picks racing the gauge: a request routed a moment ago
// has dialed and incremented in-flight well within it.
func waitInflightZero(ctx context.Context, srv *httpkit.Server) {
	const quietPolls = 5
	zeros := 0
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for zeros < quietPolls {
		if srv.Inflight() > 0 {
			zeros = 0
		} else {
			zeros++
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Autoscaler exposes the reconciler when Config.Autoscale was set, nil
// otherwise.
func (s *Stack) Autoscaler() *scalectl.Controller { return s.autoscaler }

// SetChaos installs (or, with a zero config, removes) fault injection on
// every replica of one service mid-run — the hook the chaos harness uses
// to break a live stack.
func (s *Stack) SetChaos(service string, cfg httpkit.ChaosConfig) error {
	replicas := s.serversOf(service)
	if len(replicas) == 0 {
		return fmt.Errorf("teastore: no service %q", service)
	}
	for _, srv := range replicas {
		srv.SetChaos(cfg)
	}
	return nil
}

// SetReplicaChaos injects faults into a single replica, leaving its
// siblings healthy — the scenario client-side balancing must route
// around.
func (s *Stack) SetReplicaChaos(service string, index int, cfg httpkit.ChaosConfig) error {
	srv, err := s.replica(service, index)
	if err != nil {
		return err
	}
	srv.SetChaos(cfg)
	return nil
}

// StopService stops every replica of one service, simulating a backend
// outage while the rest of the stack keeps serving. Each replica is
// deregistered first so the routing plane drops it immediately instead
// of when its lease expires — but unlike ScaleDown there is no drain:
// an outage does not wait for in-flight work.
func (s *Stack) StopService(ctx context.Context, service string) error {
	replicas := s.serversOf(service)
	if len(replicas) == 0 {
		return fmt.Errorf("teastore: no service %q", service)
	}
	var firstErr error
	for _, srv := range replicas {
		s.deregister(srv)
		if err := srv.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
		s.untrack(srv)
	}
	return firstErr
}

// deregister removes one server's registration so lookups stop routing to
// it now rather than after its lease expires (up to RegistryTTL later).
func (s *Stack) deregister(srv *httpkit.Server) {
	if s.reg == nil {
		return
	}
	s.reg.Deregister(registry.Registration{Service: srv.Name(), Address: srv.Addr()})
}

// Registry exposes the in-process registry.
func (s *Stack) Registry() *registry.Registry { return s.reg }

// PersistenceCluster exposes the sharded order plane (a single-shard
// cluster when Config.PersistenceShards was unset).
func (s *Stack) PersistenceCluster() *persistence.Cluster { return s.cluster }

// Shutdown stops the control loops, then deregisters and stops every
// server. The reconciler is stopped first so it cannot add replicas to a
// stack that is going away. Deregistering before closing means a
// half-stopped stack never advertises replicas that no longer answer —
// without it a stopped instance stays routable until its lease expires.
func (s *Stack) Shutdown(ctx context.Context) {
	if s.stopCtl != nil {
		s.stopCtl()
		s.stopCtl = nil
	}
	if s.stopHB != nil {
		s.stopHB()
		s.stopHB = nil
	}
	if s.stopSwp != nil {
		s.stopSwp()
	}
	live := s.liveServers()
	for _, srv := range live {
		s.deregister(srv)
	}
	for _, srv := range live {
		_ = srv.Shutdown(ctx)
	}
	// Stop the commit pipelines last: with every listener down nothing can
	// append, and closing drains pending writes so nothing acked is lost.
	if s.cluster != nil {
		s.cluster.Close()
	}
}
