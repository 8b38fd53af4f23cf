package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/services/auth"
	imagesvc "repro/internal/services/image"
	"repro/internal/services/persistence"
	"repro/internal/services/recommender"
	"repro/internal/services/registry"
	"repro/internal/shardmap"
	"repro/internal/teastore"
)

// Layer probes time calls into each module's exported functions, in this
// process, from as many goroutines as the run has connections. They price
// one unit of a layer's work; the scrape supplies how many units a page
// buys. A probe never touches the child stack.

// sample is one reported number with the count of observations behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// batchFloor is the shortest timed batch: long enough that reading the
// clock twice is noise even for a 50 ns call.
const batchFloor = 50 * time.Microsecond

// probeCount is how many timed probes prober.run makes; a traced run
// splits its probe time evenly among them.
const probeCount = 20

// probeSpans bounds how many batches of one probe are kept as spans.
const probeSpans = 32

// prober runs the probes of one traced run.
type prober struct {
	conns  int
	budget time.Duration // wall time per probe
	log    *spanLog
}

// time runs fn(goroutine, i) from p.conns goroutines for p.budget and
// returns the median time per call in nanoseconds, the number of calls, and
// the process CPU time per call. Calls are timed in batches that grow until
// one lasts batchFloor.
func (p *prober) time(name string, fn func(g, i int)) (ns float64, calls int, cpuNs float64) {
	var mu sync.Mutex
	var perCall []float64
	var wg sync.WaitGroup
	cpu0 := selfCPU()
	start := time.Now()
	for g := 0; g < p.conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []float64
			batch, i := 1, 0
			for time.Since(start) < p.budget {
				t0 := time.Now()
				for k := 0; k < batch; k++ {
					fn(g, i)
					i++
				}
				t1 := time.Now()
				if el := t1.Sub(t0); el < batchFloor && batch < 1<<20 {
					batch *= 2
					continue
				}
				if len(mine) < probeSpans/p.conns {
					p.log.add(0, "probe", name, t0, t1)
				}
				mine = append(mine, float64(t1.Sub(t0))/float64(batch))
			}
			mu.Lock()
			perCall = append(perCall, mine...)
			calls += i
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	cpu := selfCPU() - cpu0
	if calls == 0 {
		return 0, 0, 0
	}
	return median(perCall), calls, float64(cpu) / float64(calls)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocs counts heap allocations per call of fn, from one goroutine.
func allocs(fn func(i int)) float64 {
	const runs = 200
	fn(0) // warm pools and lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// storeUsers adapts a db.Store to what auth.Service needs of persistence.
type storeUsers struct{ store *db.Store }

func (s storeUsers) UserByEmail(_ context.Context, email string) (auth.UserRecord, error) {
	u, err := s.store.UserByEmail(email)
	if err != nil {
		return auth.UserRecord{}, err
	}
	return auth.UserRecord{ID: u.ID, Email: u.Email, PasswordHash: u.PasswordHash, Salt: u.Salt}, nil
}

// run executes every layer probe against a private copy of the workload's
// store and returns the per-layer metrics they produce.
func (p *prober) run(ctx context.Context, wl *workload) (map[string]sample, error) {
	out := map[string]sample{}
	set := func(name, unit string, scale float64, fn func(g, i int)) {
		ns, calls, _ := p.time(name, fn)
		out[name] = sample{Value: ns / scale, Unit: unit, N: calls}
	}
	const us = 1e3

	cfg := wl.stack()
	spec := cfg.Catalog
	if spec.Categories == 0 {
		spec = db.DefaultGenerateSpec()
	}
	store := db.NewStore()
	defer store.Close()
	if err := store.Generate(spec, auth.HashPassword); err != nil {
		return nil, err
	}
	seedOrders := store.AllOrders() // before the order probes add theirs
	cats := store.Categories()
	nProducts := store.NumProducts()
	firstProduct, _, err := store.ProductsByCategory(cats[0].ID, 0, 1)
	if err != nil {
		return nil, err
	}
	// Product IDs are handed out consecutively by Generate.
	pid := func(i int) int64 { return firstProduct[0].ID + int64(i%nProducts) }

	// db: snapshot reads, order ack and replay.
	set("db.page_read_ns", "ns", 1, func(_, i int) {
		_, _, _ = store.ProductsByCategory(cats[i%len(cats)].ID, (i%categoryPages)*cardsPerPage, cardsPerPage)
	})
	set("db.product_read_ns", "ns", 1, func(_, i int) { _, _ = store.Product(pid(i)) })
	out["db.read_allocs"] = sample{Unit: "count", N: 200, Value: allocs(func(i int) {
		_, _, _ = store.ProductsByCategory(cats[i%len(cats)].ID, 0, cardsPerPage)
		_, _ = store.Product(pid(i))
	})}
	items := []db.OrderItem{{ProductID: pid(1), Quantity: 1}, {ProductID: pid(2), Quantity: 2}}
	user := int64(1)
	if u, err := store.UserByEmail(db.EmailFor(0)); err == nil {
		user = u.ID
	}
	key := func(g, i int) string { return strconv.Itoa(g) + "/" + strconv.Itoa(i) }
	set("db.order_ack_us", "us", us, func(g, i int) {
		_, _, _ = store.PlaceOrderIdempotent(key(g, i), user, items, time.Now())
	})
	store.Flush()
	set("db.order_replay_us", "us", us, func(g, _ int) {
		_, _, _ = store.PlaceOrderIdempotent(key(g, 0), user, items, time.Now())
	})

	// shardmap and registry: the routing plane's per-call lookups.
	ring := shardmap.New([]int{0, 1}, 0)
	set("shardmap.owner_ns", "ns", 1, func(_, i int) { ring.Owner(shardmap.UserKey(int64(i))) })
	reg := registry.New(0)
	for i, svc := range []string{"auth", "persistence", "persistence", "recommender", "image", "webui"} {
		reg.Register(registry.Registration{Service: svc, Address: "127.0.0.1:" + strconv.Itoa(9000+i)})
	}
	set("registry.lookup_ns", "ns", 1, func(_, _ int) { reg.LookupInstances("persistence") })

	// auth: the three operations a page can buy.
	authSvc, err := auth.New([]byte("teastore-dev-key-0123456789"), storeUsers{store})
	if err != nil {
		return nil, err
	}
	token, _, err := authSvc.Login(ctx, db.EmailFor(0), db.PasswordFor(0))
	if err != nil {
		return nil, err
	}
	set("auth.login_us", "us", us, func(_, i int) {
		_, _, _ = authSvc.Login(ctx, db.EmailFor(i%spec.Users), db.PasswordFor(i%spec.Users))
	})
	set("auth.validate_us", "us", us, func(_, _ int) { _, _ = authSvc.Validate(token) })
	cart := []auth.CartItem{{ProductID: pid(1), Quantity: 1}, {ProductID: pid(2), Quantity: 2}}
	set("auth.sign_cart_us", "us", us, func(_, _ int) { _, _ = authSvc.SignCart(cart) })

	// recommender, trained on the seed orders as the stack's is at boot.
	rec, err := recommender.New(cfg.Algorithm, nil)
	if err != nil {
		return nil, err
	}
	rec.TrainOn(seedOrders)
	set("recommender.recommend_us", "us", us, func(_, i int) {
		_, _ = rec.Recommend(user, []int64{pid(i)}, 4)
	})

	// image: a render at each size the pages ask for, and a cache hit.
	for _, size := range []imagesvc.Size{imagesvc.SizeIcon, imagesvc.SizePreview, imagesvc.SizeFull} {
		px := size.Pixels()
		set("image.render_us."+string(size), "us", us, func(g, i int) {
			_, _ = imagesvc.Render(pid(g*1000+i), px)
		})
	}
	cache := imagesvc.NewCache(64<<20, 16)
	png, err := imagesvc.Render(pid(0), imagesvc.SizePreview.Pixels())
	if err != nil {
		return nil, err
	}
	const cached = 512
	keys := make([]string, cached)
	for i := range keys {
		keys[i] = strconv.Itoa(i) + "/preview"
		cache.Put(keys[i], png)
	}
	set("image.cache_get_ns", "ns", 1, func(_, i int) { cache.Get(keys[i%cached]) })

	// httpkit codec: the product listing of a category page and a 20-row one.
	for _, n := range []int{cardsPerPage, 20} {
		products, total, err := store.ProductsByCategory(cats[0].ID, 0, n)
		if err != nil {
			return nil, err
		}
		payload := persistence.ProductPage{Products: products, Total: total}
		jb, err := httpkit.EncodeJSON(payload)
		if err != nil {
			return nil, err
		}
		wire := append([]byte(nil), jb.Bytes()...)
		jb.Release()
		encode := func(int) {
			if jb, err := httpkit.EncodeJSON(payload); err == nil {
				jb.Release()
			}
		}
		suffix := "." + strconv.Itoa(n)
		set("httpkit.encode_json_ns"+suffix, "ns", 1, func(_, i int) { encode(i) })
		set("httpkit.decode_json_ns"+suffix, "ns", 1, func(_, _ int) {
			var back persistence.ProductPage
			_ = json.NewDecoder(bytes.NewReader(wire)).Decode(&back)
		})
		if n == cardsPerPage {
			out["httpkit.encode_json_allocs"] = sample{Unit: "count", N: 200, Value: allocs(encode)}
		}
	}

	if err := p.rpc(ctx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// echoBody is what both echo servers answer: small, so that the hop is
// priced apart from the codec.
var echoBody = map[string]bool{"ok": true}

// rpc prices one inter-service hop: an httpkit Client calling a logical
// svc:// URL through a balancer, breaker and hedger wired as the stack
// wires them, into an httpkit Server's middleware chain and a no-op
// handler, on loopback. The same exchange over bare net/http is the floor;
// the difference is what the chain costs. CPU is this process's, so it
// counts client and server side of the hop, as the stack pays both.
func (p *prober) rpc(ctx context.Context, out map[string]sample) error {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /echo", func(w http.ResponseWriter, _ *http.Request) {
		httpkit.WriteJSON(w, http.StatusOK, echoBody)
	})
	srv, err := httpkit.NewServer("echo", "127.0.0.1:0", mux)
	if err != nil {
		return err
	}
	srv.SetMaxInflight(teastore.DefaultMaxInflight)
	srv.Start()
	defer srv.Kill()
	resolver := httpkit.ResolverFunc(func(context.Context, string) ([]string, error) {
		return []string{srv.Addr()}, nil
	})
	client := httpkit.NewClient(10*time.Second,
		httpkit.WithBalancer(httpkit.NewBalancer(resolver, httpkit.BalancerConfig{})),
		httpkit.WithHedge(httpkit.HedgePolicy{}))
	var failed error
	var once sync.Once
	call := func(int) {
		var got map[string]bool
		if err := client.GetJSON(ctx, httpkit.BalancedURL("echo")+"/echo", &got); err != nil {
			once.Do(func() { failed = err })
		}
	}
	rtt, calls, cpu := p.time("httpkit.rpc_rtt_us", func(_, i int) { call(i) })
	if failed != nil {
		return fmt.Errorf("rpc probe: %w", failed)
	}
	out["httpkit.rpc_rtt_us"] = sample{Value: rtt / 1e3, Unit: "us", N: calls}
	out["httpkit.rpc_cpu_us"] = sample{Value: cpu / 1e3, Unit: "us", N: calls}
	out["httpkit.rpc_allocs"] = sample{Value: allocs(call), Unit: "count", N: 200}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	wire, _ := json.Marshal(echoBody)
	bare := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(wire)
	})}
	go func() { _ = bare.Serve(lis) }() // returns when bare is closed below
	defer bare.Close()
	plain := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: p.conns}}
	url := "http://" + lis.Addr().String() + "/echo"
	floorRTT, calls, floorCPU := p.time("httpkit.nethttp_rtt_us", func(_, _ int) {
		resp, err := plain.Get(url)
		if err != nil {
			once.Do(func() { failed = err })
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
	if failed != nil {
		return fmt.Errorf("net/http probe: %w", failed)
	}
	out["httpkit.nethttp_rtt_us"] = sample{Value: floorRTT / 1e3, Unit: "us", N: calls}
	out["httpkit.nethttp_cpu_us"] = sample{Value: floorCPU / 1e3, Unit: "us", N: calls}
	out["httpkit.chain_overhead_us"] = sample{Value: (cpu - floorCPU) / 1e3, Unit: "us", N: calls}
	return nil
}
