package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// A run is one workload measured once. The timed run (-trace 0) produces
// the end-to-end metrics and nothing else touches the stack while it
// measures; the traced run (-trace 1) produces the per-layer metrics and
// its numbers are never mixed into the end-to-end ones.

// Shares of -seconds each phase of a timed run measures for: an unloaded
// open-loop phase, an open-loop phase at about 40 % load, and a closed
// loop at saturation.
const (
	loShare  = 0.30
	hiShare  = 0.30
	satShare = 0.40
)

// Shares of -seconds in a traced run: lo (generator lateness), a
// saturated segment bracketed by scrapes, an untraced and an equally long
// traced segment on one connection, and the layer probes.
const (
	tracedLoShare    = 0.20
	tracedSatShare   = 0.30
	tracedOneShare   = 0.15
	tracedProbeShare = 0.20
)

// scriptPages is how many pages each worker's script holds before it
// wraps around: more than any phase at any measured rate consumes.
const scriptPages = 1 << 15

// warmPages is the warm-up of a workload that ranges over more images than
// the cache holds: that many pages of the workload itself.
const warmPages = 300

// runResult is one run as reported.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
	// Notes lists every violated check and every validity flag of the
	// generator; a correct, valid run has none.
	Notes []string `json:"notes,omitempty"`
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a violated correctness check.
func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.note(format, args...)
}

// env is one booted and warmed stack with the generator pointed at it.
type env struct {
	st         *stack
	drv        *driver
	boot, warm time.Duration
	err        error // the first failed reading of the child's CPU time
}

// cpu reads the child's CPU seconds so far. A run takes several readings
// between phases and checks e.err once, after the last.
func (e *env) cpu() float64 {
	s, err := e.st.cpuSeconds()
	if err != nil && e.err == nil {
		e.err = err
	}
	return s
}

// setup boots a child stack for the workload, generates the run's scripts
// from the seed and warms the stack. Only booting and warming are timed:
// generating the scripts is the generator's own work.
func setup(ctx context.Context, wl *workload, seed int64, conns int) (*env, error) {
	t0 := time.Now()
	st, err := spawn(ctx, wl)
	if err != nil {
		return nil, err
	}
	e := &env{st: st, boot: time.Since(t0)}
	cat, err := discover(ctx, st, wl.hot)
	if err != nil {
		st.kill()
		return nil, err
	}
	scripts := make([][]page, conns)
	for i := range scripts {
		scripts[i] = genScript(rand.New(rand.NewSource(scriptSeed(seed, i))), wl.profile, cat, scriptPages)
	}
	e.drv = newDriver(st.webui, scripts, "b"+strconv.FormatInt(seed, 10))

	t1 := time.Now()
	var warm *phase
	if wl.hot > 0 {
		walk := newDriver(st.webui, catalogWalk(cat, conns), "walk")
		warm = walk.closedLoop(ctx, conns, time.Minute, len(walk.workers[0].script), nil)
		walk.close()
	} else {
		warm = e.drv.closedLoop(ctx, conns, time.Minute, warmPages/conns, nil)
	}
	e.warm = time.Since(t1)
	if err := ctx.Err(); err != nil {
		e.close()
		return nil, err
	}
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up failed on %d of %d pages: %v", warm.failed, warm.attempted, warm.errs)
	}
	return e, nil
}

func (e *env) close() {
	e.drv.close()
	e.st.stop()
}

// catalogWalk is the warm-up of a workload confined to a hot product set:
// each of its product pages and the leading pages of every category once,
// dealt round-robin into one script per connection (padded to equal
// length).
func catalogWalk(cat *catalog, conns int) [][]page {
	var all []page
	for _, c := range cat.categories {
		for p := 0; p < categoryPages; p++ {
			all = append(all, page{kind: kCategory, status: 200, cards: cardsPerPage,
				path: fmt.Sprintf("/category/%d?page=%d", c.ID, p)})
		}
	}
	for _, p := range cat.products {
		all = append(all, page{kind: kProduct, status: 200, path: "/product/" + strconv.FormatInt(p.ID, 10)})
	}
	per := (len(all) + conns - 1) / conns
	scripts := make([][]page, conns)
	for i := 0; i < per*conns; i++ {
		scripts[i%conns] = append(scripts[i%conns], all[i%len(all)])
	}
	return scripts
}

// phaseSeconds turns a share of the run into a phase length.
func phaseSeconds(seconds int, share float64) time.Duration {
	return time.Duration(float64(seconds) * share * float64(time.Second))
}

// openPhase runs one open-loop phase at rate pages per second.
func openPhase(ctx context.Context, e *env, seed int64, index int, rate float64, dur time.Duration) *phase {
	offsets := genArrivals(rand.New(rand.NewSource(arrivalSeed(seed, index))), rate, dur)
	return e.drv.openLoop(ctx, offsets)
}

// account adds a phase to the run's totals and checks its identity.
func (r *runResult) account(name string, p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed + p.dropped
	if !p.consistent() {
		r.fail("%s: attempted %d ≠ served %d + failed %d + dropped %d", name, p.attempted, p.served(), p.failed, p.dropped)
	}
	if p.failed+p.dropped > 0 {
		r.fail("%s: %d failed, %d dropped of %d; first: %v", name, p.failed, p.dropped, p.attempted, p.errs)
	}
}

// Validity limits of the generator (flagged, not failed: they say the
// instrument, not the store, may have shaped a number).
const (
	maxLateP99Ms   = 1.0
	maxLoadgenCPUs = 0.25
)

// lateP99 returns how late the generator dispatched at p99 of an open-loop
// phase and flags the run when that is beyond the limit.
func (r *runResult) lateP99(p *phase) float64 {
	late := percentile(sortedCopy(p.late), 0.99)
	if late > maxLateP99Ms {
		r.note("invalid: generator ran %.2f ms late at p99 of lo (limit %.0f ms)", late, maxLateP99Ms)
	}
	return late
}

// runTimed measures the end-to-end metrics of one workload. Set-up is
// repeated setups times and the median reported; the last stack is the
// one measured.
func runTimed(ctx context.Context, wl *workload, seed int64, seconds, setups, conns int) (*runResult, error) {
	res := &runResult{Workload: wl.name, Seed: seed, Seconds: seconds, Correct: true, Metrics: map[string]sample{}}
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		var err error
		if e, err = setup(ctx, wl, seed, conns); err != nil {
			return nil, err
		}
		setupS = append(setupS, (e.boot + e.warm).Seconds())
		if i < setups-1 {
			e.drv.close()
			e.st.kill()
		}
	}
	defer e.close()
	before, err := e.st.audit(ctx)
	if err != nil {
		return nil, err
	}

	lo := openPhase(ctx, e, seed, 0, wl.lo, phaseSeconds(seconds, loShare))
	hi := openPhase(ctx, e, seed, 1, wl.hi, phaseSeconds(seconds, hiShare))
	genCPU0, cpu0 := selfCPU(), e.cpu()
	sat := e.drv.closedLoop(ctx, conns, phaseSeconds(seconds, satShare), 0, nil)
	genCPU, stackCPU := selfCPU()-genCPU0, e.cpu()-cpu0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.err != nil {
		return nil, e.err
	}

	after, err := e.st.audit(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := e.st.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	res.account("lo", lo)
	res.account("hi", hi)
	res.account("sat", sat)
	acked := map[string]bool{}
	for _, p := range []*phase{lo, hi, sat} {
		for _, id := range p.orderIDs {
			if acked[id] {
				res.fail("order %s was acked twice", id)
			}
			acked[id] = true
		}
	}
	if stored := after.Orders - before.Orders; stored != len(acked) {
		res.fail("%d orders stored, %d checkouts acked", stored, len(acked))
	}
	if !after.Distinct {
		res.fail("stored order IDs are not distinct")
	}
	if sat.served() == 0 || lo.served() == 0 || hi.served() == 0 {
		res.fail("a phase served no page")
		return res, nil
	}

	loLat, hiLat, satLat := sortedCopy(lo.lat), sortedCopy(hi.lat), sortedCopy(sat.lat)
	m := res.Metrics
	m["setup_s"] = sample{median(setupS), "s", len(setupS)}
	m["lo_p50_ms"] = sample{percentile(loLat, 0.5), "ms", len(loLat)}
	m["hi_p50_ms"] = sample{percentile(hiLat, 0.5), "ms", len(hiLat)}
	m["hi_p99_ms"] = sample{percentile(hiLat, supportedTail(len(hiLat))), "ms", len(hiLat)}
	m["sat_pages_per_s"] = sample{float64(sat.bestSecond()), "pages/s", sat.served()}
	m["sat_p50_ms"] = sample{percentile(satLat, 0.5), "ms", len(satLat)}
	m["sat_p99_ms"] = sample{percentile(satLat, supportedTail(len(satLat))), "ms", len(satLat)}
	m["stack_cpu_ms_per_page"] = sample{stackCPU * 1000 / float64(sat.served()), "ms", sat.served()}
	m["stack_rss_mb"] = sample{rss, "MiB", 1}
	m[failShare.name] = sample{float64(res.Failed) / float64(res.Attempted), failShare.unit, res.Attempted}

	res.lateP99(lo)
	if share := genCPU.Seconds() / stackCPU; share > maxLoadgenCPUs {
		res.note("invalid: generator CPU is %.0f %% of stack CPU in sat (limit %.0f %%)", share*100, maxLoadgenCPUs*100)
	}
	return res, nil
}

// perCall divides, answering 0 for an empty denominator.
func perCall(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// runTraced measures the per-layer metrics of one workload and writes the
// run's spans to outDir/<workload>.trace.json.
func runTraced(ctx context.Context, wl *workload, seed int64, seconds, conns int, outDir string) (*runResult, error) {
	res := &runResult{Workload: wl.name, Seed: seed, Seconds: seconds, Traced: true, Correct: true, Metrics: map[string]sample{}}
	e, err := setup(ctx, wl, seed, conns)
	if err != nil {
		return nil, err
	}
	defer e.close()
	log := &spanLog{}

	lo := openPhase(ctx, e, seed, 0, wl.lo, phaseSeconds(seconds, tracedLoShare))

	// Saturated segment between two scrapes: how many units of each
	// layer's work a page buys.
	scrape0, err := scrape(ctx, e.st)
	if err != nil {
		return nil, err
	}
	genCPU0, cpu0 := selfCPU(), e.cpu()
	sat := e.drv.closedLoop(ctx, conns, phaseSeconds(seconds, tracedSatShare), 0, nil)
	genCPU, satCPU := selfCPU()-genCPU0, e.cpu()-cpu0
	scrape1, err := scrape(ctx, e.st)
	if err != nil {
		return nil, err
	}

	// One connection, untraced then traced for as long: the difference in
	// stack CPU per page is what tracing costs.
	one := phaseSeconds(seconds, tracedOneShare)
	cpu1 := e.cpu()
	plain := e.drv.closedLoop(ctx, 1, one, 0, nil)
	cpu2 := e.cpu()
	tr := &tracer{log: log, st: e.st, prefix: "b" + strconv.FormatInt(seed, 10) + "t"}
	traced := e.drv.closedLoop(ctx, 1, one, 0, tr)
	cpu3 := e.cpu()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.err != nil {
		return nil, e.err
	}

	res.account("lo", lo)
	res.account("sat", sat)
	res.account("untraced", plain)
	res.account("traced", traced)
	if sat.served() == 0 || plain.served() == 0 || traced.served() == 0 || tr.fetched == 0 {
		res.fail("a segment served no page or no trace was fetched")
		return res, nil
	}

	probes := &prober{conns: conns, log: log,
		budget: phaseSeconds(seconds, tracedProbeShare) / time.Duration(probeCount)}
	m, err := probes.run(ctx, wl)
	if err != nil {
		return nil, err
	}
	res.Metrics = m

	d := scrape1.since(scrape0)
	pages := float64(sat.served())
	kpages := pages / 1000
	stackMs := satCPU * 1000 / pages
	set := func(name, unit string, v float64, n int) { m[name] = sample{v, unit, n} }

	set("loadgen.cpu_ms_per_page", "ms", msOf(genCPU)/pages, sat.served())
	set("loadgen.late_p99_ms", "ms", res.lateP99(lo), len(lo.late))
	set("loadgen.conn_wait_share", "ratio", perCall(float64(lo.waited), float64(lo.attempted)), lo.attempted)
	set("loadgen.sessions", "count", float64(sat.sessions), sat.served())
	set("loadgen.fail_share", "ratio", float64(res.Failed)/float64(res.Attempted), res.Attempted)

	var rpcs, retries, hedges, shed, shortCircuits int64
	for name, sc := range d.services {
		if name != "webui" && name != "registry" {
			rpcs += sc.total().n
		}
		retries += sc.retries
		hedges += sc.hedges
		shed += sc.shed
		shortCircuits += sc.shortCircuits
	}
	set("httpkit.rpcs_per_page", "count", float64(rpcs)/pages, sat.served())
	set("httpkit.retries_per_kpage", "count", float64(retries)/kpages, sat.served())
	set("httpkit.hedges_per_kpage", "count", float64(hedges)/kpages, sat.served())
	set("httpkit.shed_per_kpage", "count", float64(shed)/kpages, sat.served())
	set("httpkit.short_circuits", "count", float64(shortCircuits), sat.served())
	set("registry.lookups_per_kpage", "count", float64(d.services["registry"].total().n)/kpages, sat.served())

	webui := d.services["webui"].total()
	set("webui.busy_ms_per_page", "ms", perCall(webui.busyNs/1e6, float64(webui.n)), int(webui.n))
	set("webui.self_ms_per_page", "ms", msOf(tr.self)/float64(tr.fetched), tr.fetched)
	set("webui.resp_bytes_per_page", "bytes", float64(sat.bytes)/pages, sat.served())
	for k := kHome; k <= kProfile; k++ {
		set("webui."+kindNames[k]+"_p50_ms", "ms", median(sat.byKind[k]), len(sat.byKind[k]))
	}
	for _, svc := range []string{"auth", "persistence", "recommender", "image"} {
		t := d.services[svc].total()
		set(svc+".calls_per_page", "count", float64(t.n)/pages, sat.served())
		set(svc+".busy_us_per_call", "us", perCall(t.busyNs/1e3, float64(t.n)), int(t.n))
	}
	logins := d.route("auth", "POST /login")
	set("auth.logins_per_kpage", "count", float64(logins.n)/kpages, sat.served())
	set("db.orders_per_s", "1/s", float64(d.orders)/sat.elapsed.Seconds(), int(d.orders))
	lookups := d.cacheHits + d.cacheMisses
	set("image.cache_hit_ratio", "ratio", perCall(float64(d.cacheHits), float64(lookups)), int(lookups))
	set("image.cache_mb", "MiB", float64(d.cacheBytes)/(1<<20), 1)
	set("teastore.boot_s", "s", e.boot.Seconds(), 1)
	set("teastore.warm_s", "s", e.warm.Seconds(), 1)
	set("edge.gap_us_per_page", "us", float64(tr.gap.Microseconds())/float64(tr.fetched), tr.fetched)
	plainMs := (cpu2 - cpu1) * 1000 / float64(plain.served())
	tracedMs := (cpu3 - cpu2) * 1000 / float64(traced.served())
	set("trace.overhead_share", "ratio", tracedMs/plainMs-1, traced.served())

	// The budget: what the probes and the scrape together account for of
	// the CPU a page costs the stack. Image work is split into renders
	// (misses, at the size mix the pages ask for) and cache hits.
	validates := d.route("auth", "POST /validate").n + d.route("auth", "POST /cart/verify").n
	signs := d.route("auth", "POST /cart/sign").n
	listings := d.route("persistence", "GET /categories/{id}/products").n
	orders := d.route("persistence", "POST /orders").n
	reads := d.services["persistence"].total().n - listings - orders
	nCat, nProd := float64(len(sat.byKind[kCategory])), float64(len(sat.byKind[kProduct]))
	renderUs := perCall(
		nCat*cardsPerPage*m["image.render_us.preview"].Value+
			nProd*(m["image.render_us.full"].Value+4*m["image.render_us.icon"].Value),
		nCat*cardsPerPage+nProd*5)
	attributedUs := float64(logins.n)*m["auth.login_us"].Value +
		float64(validates)*m["auth.validate_us"].Value +
		float64(signs)*m["auth.sign_cart_us"].Value +
		float64(listings)*m["db.page_read_ns"].Value/1e3 +
		float64(reads)*m["db.product_read_ns"].Value/1e3 +
		float64(orders)*m["db.order_ack_us"].Value +
		float64(d.services["recommender"].total().n)*m["recommender.recommend_us"].Value +
		float64(d.cacheMisses)*renderUs +
		float64(d.cacheHits)*m["image.cache_get_ns"].Value/1e3 +
		float64(rpcs)*m["httpkit.rpc_cpu_us"].Value
	attributedMs := attributedUs/1e3/pages + m["webui.self_ms_per_page"].Value
	set("budget.attributed_ms_per_page", "ms", attributedMs, sat.served())
	set("budget.unattributed_share", "ratio", 1-attributedMs/stackMs, sat.served())

	for _, def := range perLayer {
		if s, ok := m[def.name]; !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			res.fail("per-layer metric %s is missing or not finite", def.name)
		}
	}
	path := filepath.Join(outDir, wl.name+".trace.json")
	if err := log.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(log.spans), path)
	return res, nil
}
