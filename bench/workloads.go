package main

import (
	"repro/internal/db"
	"repro/internal/teastore"
)

// workload is one traffic mix against one stack configuration. lo and hi
// are the two fixed open-loop rates in pages per second, frozen at about
// 12 % and 40 % of the closed-loop saturation rate measured on the
// reference host (README, "Sizing") when the benchmark was added.
type workload struct {
	name    string
	why     string
	profile *profile
	lo, hi  float64
	stack   func() teastore.Config
	// hot, when > 0, confines the traffic to the first hot products of
	// each category, whose images fit the stack's cache; warm-up is then
	// one walk over exactly that set. With 0 the traffic ranges over the
	// whole catalog and warm-up is a fixed number of pages of the workload.
	hot int
}

// hotProducts gives 180 products, about 21 MiB of rendered images against
// the default 64 MiB cache, walked in about 2 s. (All 600 need slightly
// more than the cache holds, so a walk over them takes 6 s and still
// leaves the hit ratio near 0.97, not 1.)
const hotProducts = 30

func defaultStack() teastore.Config { return teastore.Config{} }

// bigCatalog is image-miss's store: 3 000 products whose rendered images
// need roughly ten times the 4 MiB the stack may cache.
func bigCatalog() db.GenerateSpec {
	spec := db.DefaultGenerateSpec()
	spec.ProductsPerCategory = 500
	return spec
}

var workloads = []*workload{
	{
		name:    "browse",
		why:     "The paper's LIMBO mix (login, category and product views, cart, some checkouts): every layer does a little and none dominates; the baseline no change may hurt.",
		profile: browseProfile,
		lo:      60,
		hi:      200,
		stack:   defaultStack,
		hot:     hotProducts,
	},
	{
		name:    "catalog-read",
		why:     "Anonymous home/category/product reads at full image-cache hit: RPC fan-out, JSON codec, db snapshot reads and page render do the work; login, orders and image render do none.",
		profile: apibotProfile,
		lo:      50,
		hi:      160,
		stack:   defaultStack,
		hot:     hotProducts,
	},
	{
		name:    "image-miss",
		why:     "Same reads over 3000 products with a 4 MiB image cache: the working set far exceeds the cache, so image render, LRU and singleflight dominate and RPC-path gains are diluted.",
		profile: apibotProfile,
		lo:      15,
		hi:      60,
		stack: func() teastore.Config {
			return teastore.Config{Catalog: bigCatalog(), ImageCacheBytes: 4 << 20}
		},
	},
	{
		name:    "checkout-storm",
		why:     "Login, add-to-cart and keyed checkout on 2 persistence shards: order writes beside reads (idempotency table, WAL, shard routing) and auth hashing that the read workloads bypass.",
		profile: stormProfile,
		lo:      100,
		hi:      350,
		stack:   func() teastore.Config { return teastore.Config{PersistenceShards: 2} },
		hot:     hotProducts,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// metricDef names one reported number. bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none. BENCHMARK.json repeats these tables and a test keeps the two
// identical.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the numbers a user of the store would see that the
// acceptance contract gates: the ones BENCHMARK.json lists. On the 2-vCPU
// shared reference host a whole run speeds up or slows down by 10 to 30 %
// with the neighbours' load, so the bounds are as wide as the contract
// lets them be; README has the measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lo_p50_ms", "ms", "lower", 0.25},
	{"sat_pages_per_s", "pages/s", "higher", 0.25},
	{"sat_p50_ms", "ms", "lower", 0.25},
	{"stack_cpu_ms_per_page", "ms", "lower", 0.25},
	{"stack_rss_mb", "MiB", "lower", 0.10},
}

// reportedOnly are end-to-end numbers every timed run prints and -compare
// judges, but BENCHMARK.json cannot list. Latency under 40 % load
// amplifies every change of host speed roughly threefold and the tails
// mostly show host stalls, so at these phase lengths their run-to-run
// spread (20 to 60 %) exceeds the largest bound the contract allows, and a
// metric in BENCHMARK.json whose spread exceeds its bound voids the whole
// benchmark. fail_share is 0 on a healthy run, which the contract forbids;
// it travels as the result line's failed/attempted. Its bound is absolute.
var reportedOnly = []metricDef{
	{"hi_p50_ms", "ms", "lower", 0.10},
	{"hi_p99_ms", "ms", "lower", 0.30},
	{"sat_p99_ms", "ms", "lower", 0.20},
	failShare,
}

var failShare = metricDef{"fail_share", "ratio", "lower", 0.001}

// timedMetrics lists everything a timed run prints, in order.
func timedMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), reportedOnly...)
}

// perLayer are the single-layer numbers of the traced run, layer by
// layer (layer = module).
var perLayer = []metricDef{
	// The bench's own generator: validity of the instrument, not product.
	{"loadgen.cpu_ms_per_page", "ms", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.conn_wait_share", "ratio", "lower", 0},
	{"loadgen.sessions", "count", "higher", 0},
	{"loadgen.fail_share", "ratio", "lower", 0},

	{"httpkit.rpcs_per_page", "count", "lower", 0},
	{"httpkit.rpc_rtt_us", "us", "lower", 0},
	{"httpkit.rpc_cpu_us", "us", "lower", 0},
	{"httpkit.rpc_allocs", "count", "lower", 0},
	{"httpkit.nethttp_rtt_us", "us", "lower", 0},
	{"httpkit.nethttp_cpu_us", "us", "lower", 0},
	{"httpkit.chain_overhead_us", "us", "lower", 0},
	{"httpkit.encode_json_ns.8", "ns", "lower", 0},
	{"httpkit.encode_json_ns.20", "ns", "lower", 0},
	{"httpkit.decode_json_ns.8", "ns", "lower", 0},
	{"httpkit.decode_json_ns.20", "ns", "lower", 0},
	{"httpkit.encode_json_allocs", "count", "lower", 0},
	{"httpkit.retries_per_kpage", "count", "lower", 0},
	{"httpkit.hedges_per_kpage", "count", "lower", 0},
	{"httpkit.shed_per_kpage", "count", "lower", 0},
	{"httpkit.short_circuits", "count", "lower", 0},

	{"registry.lookups_per_kpage", "count", "lower", 0},
	{"registry.lookup_ns", "ns", "lower", 0},

	{"webui.busy_ms_per_page", "ms", "lower", 0},
	{"webui.self_ms_per_page", "ms", "lower", 0},
	{"webui.resp_bytes_per_page", "bytes", "lower", 0},
	{"webui.home_p50_ms", "ms", "lower", 0},
	{"webui.login_p50_ms", "ms", "lower", 0},
	{"webui.category_p50_ms", "ms", "lower", 0},
	{"webui.product_p50_ms", "ms", "lower", 0},
	{"webui.addtocart_p50_ms", "ms", "lower", 0},
	{"webui.viewcart_p50_ms", "ms", "lower", 0},
	{"webui.checkout_p50_ms", "ms", "lower", 0},
	{"webui.profile_p50_ms", "ms", "lower", 0},

	{"auth.calls_per_page", "count", "lower", 0},
	{"auth.busy_us_per_call", "us", "lower", 0},
	{"auth.logins_per_kpage", "count", "lower", 0},
	{"auth.login_us", "us", "lower", 0},
	{"auth.validate_us", "us", "lower", 0},
	{"auth.sign_cart_us", "us", "lower", 0},

	{"persistence.calls_per_page", "count", "lower", 0},
	{"persistence.busy_us_per_call", "us", "lower", 0},
	{"db.page_read_ns", "ns", "lower", 0},
	{"db.product_read_ns", "ns", "lower", 0},
	{"db.read_allocs", "count", "lower", 0},
	{"db.order_ack_us", "us", "lower", 0},
	{"db.order_replay_us", "us", "lower", 0},
	{"db.orders_per_s", "1/s", "higher", 0},
	{"shardmap.owner_ns", "ns", "lower", 0},

	{"recommender.calls_per_page", "count", "lower", 0},
	{"recommender.busy_us_per_call", "us", "lower", 0},
	{"recommender.recommend_us", "us", "lower", 0},

	{"image.calls_per_page", "count", "lower", 0},
	{"image.busy_us_per_call", "us", "lower", 0},
	{"image.cache_hit_ratio", "ratio", "higher", 0},
	{"image.cache_mb", "MiB", "lower", 0},
	{"image.render_us.icon", "us", "lower", 0},
	{"image.render_us.preview", "us", "lower", 0},
	{"image.render_us.full", "us", "lower", 0},
	{"image.cache_get_ns", "ns", "lower", 0},

	{"teastore.boot_s", "s", "lower", 0},
	{"teastore.warm_s", "s", "lower", 0},

	{"edge.gap_us_per_page", "us", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"budget.attributed_ms_per_page", "ms", "higher", 0},
	{"budget.unattributed_share", "ratio", "lower", 0},
}
