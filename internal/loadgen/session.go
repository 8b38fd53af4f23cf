package loadgen

// A session is one virtual storefront user with the pacing stripped out:
// cookie jar, Markov position, replica steering, shed and retry handling.
// The engine decides *when* its next request fires; the session decides
// what it is and where it goes.

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/httpkit"
	"repro/internal/services/persistence"
	"repro/internal/workload"
)

// webuiService is the logical name sessions steer by.
const webuiService = "webui"

// sessionFactory mints sessions that share one catalog and one replica
// balancer, so hundreds of thousands of sessions steer with a single
// registry view.
type sessionFactory struct {
	cfg  Config
	cat  catalog
	lb   *httpkit.Balancer
	next atomic.Int64
}

// newSessionFactory prepares the shared balancer from a filled Config.
func newSessionFactory(cfg Config, cat catalog) *sessionFactory {
	f := &sessionFactory{cfg: cfg, cat: cat}
	if cfg.RegistryURL != "" {
		f.lb = newWebuiBalancer(cfg.RegistryURL, cfg.WebUIURL, cfg.EjectOutliers)
	}
	return f
}

// newWebuiBalancer resolves live webui replicas through the registry so
// sessions spread across replicas added at runtime. Its addresses are
// base URLs, ready to prefix a path. A failed or empty listing resolves
// to the configured fallback, so a registry outage degrades to single-URL
// load rather than stopping the run. Outlier ejection is the balancer's
// own — the same rule, with the same defaults, the stack's clients route
// by — and is off entirely unless eject is set.
func newWebuiBalancer(registryURL, fallback string, eject bool) *httpkit.Balancer {
	client := httpkit.NewClient(2*time.Second, httpkit.WithoutRetries(), httpkit.WithoutBreakers())
	resolve := func(ctx context.Context, service string) ([]string, error) {
		var addrs []string
		if err := client.GetJSON(ctx, registryURL+"/services/"+service, &addrs); err != nil || len(addrs) == 0 {
			return []string{fallback}, nil
		}
		for i, a := range addrs {
			addrs[i] = "http://" + a
		}
		return addrs, nil
	}
	return httpkit.NewBalancer(httpkit.ResolverFunc(resolve),
		httpkit.BalancerConfig{Outlier: httpkit.OutlierConfig{Disabled: !eject}})
}

// New mints one session: a fresh cookie jar and Markov walk, landed on a
// freshly picked replica.
func (f *sessionFactory) New() (virtSession, error) {
	s, err := newSession(f.cfg, f.cat, f.lb, f.next.Add(1)-1)
	if err != nil {
		return nil, err
	}
	if f.lb != nil {
		s.land(context.Background(), "")
	}
	return s, nil
}

// tally is the defense bookkeeping one request leaves behind.
type tally struct {
	// shed counts 503+Retry-After answers; retried the re-issues after
	// honouring their backoff.
	shed    int64
	retried int64
	// idemRetried and checkoutRetried count re-issues after real
	// failures: GETs, and checkouts replayed on their idempotency key.
	idemRetried     int64
	checkoutRetried int64
}

func (t *tally) add(o tally) {
	t.shed += o.shed
	t.retried += o.retried
	t.idemRetried += o.idemRetried
	t.checkoutRetried += o.checkoutRetried
}

// session is owned by one goroutine at a time (the engine hands it from
// the ready heap to a connection and back); it is not safe for
// concurrent calls.
type session struct {
	cfg    Config
	cat    catalog
	lb     *httpkit.Balancer
	base   string
	rng    *rand.Rand
	http   *http.Client
	walker *workload.Walker

	// tally accumulates across the current Issue, which resets it.
	tally

	lastProduct int64
	userIdx     int
}

func newSession(cfg Config, cat catalog, lb *httpkit.Balancer, id int64) (*session, error) {
	jar, err := cookiejar.New(nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + id))
	return &session{
		cfg: cfg, cat: cat, lb: lb, base: cfg.WebUIURL, rng: rng,
		http:    &http.Client{Jar: jar, Timeout: 30 * time.Second},
		walker:  workload.NewWalker(cfg.Profile, rng),
		userIdx: int(id) % cfg.CatalogUsers,
	}, nil
}

// Next advances the Markov walk; ok=false means the walk ended (logout
// or bounce) and the session should be retired.
func (s *session) Next() (workload.Request, bool) { return s.walker.Next() }

// Think draws one think time from the profile (scaled by ThinkScale) —
// the gap before this session may carry its next request.
func (s *session) Think() time.Duration {
	median := float64(s.cfg.Profile.ThinkMedian) * s.cfg.ThinkScale
	// Lognormal with the profile's sigma.
	d := time.Duration(median * expApprox(s.rng.NormFloat64()*s.cfg.Profile.ThinkSigma))
	if d < 0 {
		return 0
	}
	return d
}

// expApprox is math.Exp with the tails clamped so a single draw can never
// produce a multi-minute think time.
func expApprox(x float64) float64 {
	if x > 4 {
		x = 4
	}
	if x < -4 {
		x = -4
	}
	return math.Exp(x)
}

// Issue performs one request: it keeps the session on its replica while
// that replica is listed and not ejected (else re-picks — safe
// mid-session, cookie jars key by host and replicas differ only by port,
// so the login survives the move), issues with the full shed/retry
// handling, and feeds the outcome back into the balancer's health view.
// The tally reports the sheds and retries this request went through.
func (s *session) Issue(ctx context.Context, req workload.Request) (tally, error) {
	s.tally = tally{}
	if s.lb == nil {
		err := s.issue(ctx, req)
		return s.tally, err
	}
	s.land(ctx, s.base)
	start := time.Now()
	err := s.issue(ctx, req)
	s.lb.Observe(webuiService, s.base, time.Since(start), err != nil)
	return s.tally, err
}

// land puts the session on the balancer's choice: current while the
// registry lists it and it is not ejected, else — or with current "" — a
// fresh pick.
func (s *session) land(ctx context.Context, current string) {
	if base, err := s.lb.Stick(ctx, webuiService, current); err == nil {
		s.base = base
	}
}

func (s *session) sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// issue maps one workload request onto HTTP.
func (s *session) issue(ctx context.Context, req workload.Request) error {
	switch req {
	case workload.ReqHome:
		return s.get(ctx, "/")
	case workload.ReqLogin:
		return s.postForm(ctx, "/login", url.Values{
			"email":    {db.EmailFor(s.userIdx)},
			"password": {db.PasswordFor(s.userIdx)},
		})
	case workload.ReqCategory:
		id := s.cat.CategoryIDs[s.rng.Intn(len(s.cat.CategoryIDs))]
		page := s.rng.Intn(3)
		return s.get(ctx, fmt.Sprintf("/category/%d?page=%d", id, page))
	case workload.ReqProduct:
		s.lastProduct = s.cat.ProductIDs[s.rng.Intn(len(s.cat.ProductIDs))]
		return s.get(ctx, fmt.Sprintf("/product/%d", s.lastProduct))
	case workload.ReqAddToCart:
		id := s.lastProduct
		if id == 0 {
			id = s.cat.ProductIDs[s.rng.Intn(len(s.cat.ProductIDs))]
		}
		return s.postForm(ctx, "/cart/add", url.Values{"productId": {strconv.FormatInt(id, 10)}})
	case workload.ReqViewCart:
		return s.get(ctx, "/cart")
	case workload.ReqCheckout:
		// A fresh client order ID per logical checkout makes the POST
		// replayable end-to-end: retries of this submission land on the
		// same idempotency key and can never double-place.
		return s.postKeyedForm(ctx, "/cart/checkout",
			url.Values{"clientOrderId": {persistence.NewOrderKey()}})
	case workload.ReqProfile:
		return s.get(ctx, "/profile")
	case workload.ReqLogout:
		return s.get(ctx, "/logout")
	default:
		return fmt.Errorf("loadgen: unmapped request %v", req)
	}
}

func (s *session) get(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return err
	}
	return s.do(req)
}

func (s *session) postForm(ctx context.Context, path string, form url.Values) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path,
		strings.NewReader(form.Encode()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	return s.do(req)
}

// keyedPostCtx marks a POST whose payload carries an idempotency key, so
// retryIdempotent may replay it: the server dedupes on the key instead of
// double-placing. POSTs without the marker get exactly one attempt.
type keyedPostCtx struct{}

// postKeyedForm posts a form that carries its own idempotency key.
func (s *session) postKeyedForm(ctx context.Context, path string, form url.Values) error {
	return s.postForm(context.WithValue(ctx, keyedPostCtx{}, true), path, form)
}

// maxShedRetries bounds how many Retry-After backoffs one request honours
// before the shed counts as a failure.
const maxShedRetries = 2

// maxIdempotentRetries bounds GET re-issues after real failures
// (Config.RetryIdempotent).
const maxIdempotentRetries = 2

// maxRetryAfter caps the honoured backoff so a hostile or buggy header
// cannot park a connection for minutes.
const maxRetryAfter = 5 * time.Second

func (s *session) do(req *http.Request) error {
	// Sheds and failures draw on separate budgets: a request that burned
	// its idempotent retries on 5xx answers is still owed its backoffs
	// when the server then sheds it, and vice versa.
	sheds, idemTries := 0, 0
	for attempt := 0; ; attempt++ {
		if attempt > 0 && req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				return err
			}
			req.Body = body
		}
		resp, err := s.http.Do(req)
		if err != nil {
			if s.lb != nil && req.Context().Err() == nil {
				// A failed connection is evidence the listing is stale (a
				// drained or crashed replica): drop the address now rather
				// than keep landing sessions on it until the cache turns
				// over. A registry that still lists it re-adds it on the
				// next refresh.
				s.lb.Drop(webuiService, req.URL.Scheme+"://"+req.URL.Host)
			}
			if s.retryIdempotent(req, &idemTries) {
				continue
			}
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// A 503 carrying Retry-After is the server shedding load, not
		// failing: honour the backoff and re-issue instead of counting a
		// generic error. A request whose body cannot be replayed
		// (Body set but no GetBody) must not be re-issued — the first
		// attempt already consumed it and the retry would send an empty
		// payload — so it falls through to the generic 5xx error below.
		replayable := req.Body == nil || req.GetBody != nil
		if resp.StatusCode == http.StatusServiceUnavailable && replayable {
			if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok && sheds < maxShedRetries {
				sheds++
				s.shed++
				if !s.sleep(req.Context(), d) {
					return req.Context().Err()
				}
				s.retried++
				continue
			}
		}
		// 401 on login-after-expiry etc. counts as an application response,
		// not a load error; 5xx and transport failures are errors.
		if resp.StatusCode >= 500 {
			if s.retryIdempotent(req, &idemTries) {
				continue
			}
			return fmt.Errorf("loadgen: %s %s → %d", req.Method, req.URL.Path, resp.StatusCode)
		}
		return nil
	}
}

// retryIdempotent decides whether a failed request gets another go:
// GETs, plus POSTs marked keyed (the idempotency key in the payload
// makes the replay dedupe server-side instead of double-placing).
// Bounded tries, and — when a balancer is available — freshly picked,
// because the point of the retry is landing somewhere healthier than
// where the failure came from.
func (s *session) retryIdempotent(req *http.Request, tries *int) bool {
	if !s.cfg.RetryIdempotent {
		return false
	}
	keyed, _ := req.Context().Value(keyedPostCtx{}).(bool)
	keyed = keyed && req.GetBody != nil
	if req.Method != http.MethodGet && !keyed {
		return false
	}
	if *tries >= maxIdempotentRetries || req.Context().Err() != nil {
		return false
	}
	*tries++
	if keyed {
		s.checkoutRetried++
	} else {
		s.idemRetried++
	}
	if !s.sleep(req.Context(), time.Duration(*tries)*5*time.Millisecond) {
		return false
	}
	if s.lb != nil {
		if base, err := s.lb.Stick(req.Context(), webuiService, ""); err == nil {
			if u, err := url.Parse(base); err == nil && u.Host != "" {
				req.URL.Scheme = u.Scheme
				req.URL.Host = u.Host
				req.Host = ""
			}
		}
	}
	return true
}

// isIdempotent reports whether a workload request maps to a safe GET —
// the ones a defended run must never fail.
func isIdempotent(r workload.Request) bool {
	switch r {
	case workload.ReqLogin, workload.ReqAddToCart, workload.ReqCheckout:
		return false
	}
	return true
}

// parseRetryAfter reads a delay-seconds Retry-After value (fractional
// seconds accepted), capped at maxRetryAfter. HTTP-date forms and absent
// headers report false.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs * float64(time.Second))
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d, true
}
