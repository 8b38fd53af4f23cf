package main

import (
	"fmt"
	"html"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// The generator is the benchmark's own: frozen copies of the three
// Markov profile tables and a private walker, so internal/workload,
// internal/loadgen and internal/openloop can be rewritten without the
// instrument changing under the numbers it produced.

type pageKind uint8

const (
	kHome pageKind = iota
	kLogin
	kCategory
	kProduct
	kAddToCart
	kViewCart
	kCheckout
	kProfile
	kLogout
	numKinds
	kDone = numKinds
)

var kindNames = [numKinds]string{
	"home", "login", "category", "product", "addtocart", "viewcart", "checkout", "profile", "logout",
}

type edge struct {
	to pageKind
	p  float64
}

// profile is one frozen behaviour model: a first-order Markov chain over
// page kinds. Think times are dropped on purpose: the open-loop schedule
// or the closed loop decides when a page is sent, not the session.
type profile struct {
	name   string
	next   [numKinds][]edge
	maxLen int
}

// browseProfile is internal/workload.Browse as of the commit that added
// this benchmark: the paper's LIMBO browse mix.
var browseProfile = &profile{
	name: "browse",
	next: [numKinds][]edge{
		kHome:      {{kLogin, 0.8}, {kCategory, 0.2}},
		kLogin:     {{kCategory, 1}},
		kCategory:  {{kProduct, 0.7}, {kCategory, 0.2}, {kLogout, 0.1}},
		kProduct:   {{kAddToCart, 0.3}, {kProduct, 0.25}, {kCategory, 0.35}, {kLogout, 0.1}},
		kAddToCart: {{kCategory, 0.45}, {kProduct, 0.25}, {kViewCart, 0.3}},
		kViewCart:  {{kCheckout, 0.5}, {kCategory, 0.35}, {kLogout, 0.15}},
		kCheckout:  {{kProfile, 0.4}, {kHome, 0.3}, {kLogout, 0.3}},
		kProfile:   {{kLogout, 0.6}, {kCategory, 0.4}},
		kLogout:    {{kDone, 1}},
	},
	maxLen: 100,
}

// stormProfile is internal/workload.CheckoutStorm: short logged-in
// sessions racing to a keyed checkout.
var stormProfile = &profile{
	name: "checkout-storm",
	next: [numKinds][]edge{
		kHome:      {{kLogin, 1}},
		kLogin:     {{kProduct, 0.7}, {kCategory, 0.3}},
		kCategory:  {{kProduct, 1}},
		kProduct:   {{kAddToCart, 0.85}, {kProduct, 0.15}},
		kAddToCart: {{kCheckout, 0.8}, {kViewCart, 0.2}},
		kViewCart:  {{kCheckout, 1}},
		kCheckout:  {{kProduct, 0.45}, {kLogout, 0.55}},
		kProfile:   {{kLogout, 1}},
		kLogout:    {{kDone, 1}},
	},
	maxLen: 40,
}

// apibotProfile is internal/workload.APIBot: anonymous read-only
// crawling of home, category and product pages.
var apibotProfile = &profile{
	name: "apibot",
	next: [numKinds][]edge{
		kHome:     {{kCategory, 1}},
		kCategory: {{kProduct, 0.75}, {kCategory, 0.2}, {kDone, 0.05}},
		kProduct:  {{kProduct, 0.55}, {kCategory, 0.4}, {kDone, 0.05}},
	},
	maxLen: 150,
}

// step draws the successor of a page kind.
func (p *profile) step(rng *rand.Rand, from pageKind) pageKind {
	edges := p.next[from]
	x := rng.Float64()
	for _, e := range edges {
		if x < e.p {
			return e.to
		}
		x -= e.p
	}
	if len(edges) == 0 {
		return kDone
	}
	return edges[len(edges)-1].to
}

// item is one named catalog row as discovered over HTTP.
type item struct {
	ID   int64  `json:"id"`
	Name string `json:"name"`
}

// catalog is what the generator knows about the store under test.
type catalog struct {
	categories []item
	products   []item
	users      int
}

// cardsPerPage is webui's product grid size; every category page the
// scripts request is a full one.
const cardsPerPage = 8

// categoryPages is how many leading pages of a category the scripts
// paginate over, as internal/loadgen does.
const categoryPages = 3

// page is one pre-generated request together with what a correct answer
// to it looks like. The expectations follow from the session state the
// walk has built up (logged in or not, cart empty or not), so they are
// fixed by the seed and need nothing from the run.
type page struct {
	kind   pageKind
	first  bool   // begins a session: the worker drops its cookies
	path   string // request path and query
	body   string // POST form; "" means GET
	status int    // expected final status (redirects are not followed)
	marker string // must occur in the body of a 200 answer
	cards  int    // > 0: exact number of product cards on the page
	order  bool   // a checkout that must place an order
	recall bool   // a profile page that must list the session's last order
}

// genScript walks the profile from the seed until it has n pages. A
// session that ends is followed by a fresh one for another user.
func genScript(rng *rand.Rand, prof *profile, cat *catalog, n int) []page {
	out := make([]page, 0, n)
	for len(out) < n {
		user := rng.Intn(cat.users)
		loggedIn, cart, ordered := false, 0, false
		var lastProduct int64
		kind := kHome
		for steps := 0; kind != kDone && steps < prof.maxLen && len(out) < n; steps++ {
			pg := page{kind: kind, first: steps == 0, status: http.StatusOK}
			switch kind {
			case kHome:
				pg.path, pg.marker = "/", "Welcome to the TeaStore"
			case kLogin:
				pg.path, pg.status = "/login", http.StatusSeeOther
				pg.body = url.Values{
					"email":    {fmt.Sprintf("user%d@teastore.test", user)},
					"password": {fmt.Sprintf("password%d", user)},
				}.Encode()
				loggedIn = true
			case kCategory:
				c := cat.categories[rng.Intn(len(cat.categories))]
				pg.path = fmt.Sprintf("/category/%d?page=%d", c.ID, rng.Intn(categoryPages))
				pg.marker, pg.cards = "<h1>"+html.EscapeString(c.Name)+"</h1>", cardsPerPage
			case kProduct:
				p := cat.products[rng.Intn(len(cat.products))]
				lastProduct = p.ID
				pg.path = "/product/" + strconv.FormatInt(p.ID, 10)
				pg.marker = "<h1>" + html.EscapeString(p.Name) + "</h1>"
			case kAddToCart:
				if lastProduct == 0 {
					lastProduct = cat.products[rng.Intn(len(cat.products))].ID
				}
				pg.path, pg.status = "/cart/add", http.StatusSeeOther
				pg.body = "productId=" + strconv.FormatInt(lastProduct, 10)
				cart++
			case kViewCart:
				pg.path, pg.marker = "/cart", "Your cart"
			case kCheckout:
				pg.path, pg.body = "/cart/checkout", "clientOrderId="
				if loggedIn && cart > 0 {
					pg.marker, pg.order = "placed", true
					cart, ordered = 0, true
				} else {
					pg.status = http.StatusSeeOther
				}
			case kProfile:
				pg.path = "/profile"
				if loggedIn {
					pg.marker, pg.recall = "Order history", ordered
				} else {
					pg.status = http.StatusSeeOther
				}
			case kLogout:
				pg.path, pg.status = "/logout", http.StatusSeeOther
				loggedIn, cart = false, 0
			}
			out = append(out, pg)
			kind = prof.step(rng, kind)
		}
	}
	return out
}

// genArrivals draws Poisson arrival offsets at rate per second over dur.
func genArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// Seeds of the independent random streams a run draws from one -seed.
func scriptSeed(seed int64, worker int) int64 { return seed*1_000_003 + int64(worker) }
func arrivalSeed(seed int64, phase int) int64 { return seed*7_919 + 104_729*int64(phase+1) }
