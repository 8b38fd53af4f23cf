package httpkit

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// parityOutcome is everything a caller or an operator can see of one
// logical call: what came back, how many requests reached the server, and
// what the client's resilience counters and the destination's breaker say.
type parityOutcome struct {
	errClass      string // "", "status", "circuit-open", "cancelled", "budget", "transport"
	status        int    // the error envelope's status, 0 when none
	served        int64  // requests the server saw
	badBodies     int64  // requests whose body was not the payload sent
	retries       int64
	shortCircuits int64
	breaker       BreakerSnapshot
}

func parityClass(err error) (string, int) {
	var body *ErrorBody
	switch {
	case err == nil:
		return "", 0
	case errors.Is(err, ErrCircuitOpen):
		return "circuit-open", 0
	case strings.Contains(err.Error(), "retry budget exhausted"):
		if errors.As(err, &body) {
			return "budget", body.Status
		}
		return "budget", 0
	case errors.As(err, &body):
		return "status", body.Status
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "cancelled", 0
	}
	return "transport", 0
}

const parityPayload = `{"n":7}`

// parityScenario is one row of the table: a server behaviour, a client
// policy, and the call made — each run once against the server's literal
// URL and once against svc:// over a resolver that knows that one address.
type parityScenario struct {
	name string
	// handler answers the n-th request (1-based) to /x; nil means the
	// server is shut down before the call, so connections are refused.
	handler func(n int64, w http.ResponseWriter, r *http.Request)
	retry   RetryPolicy
	// before runs against the fresh client, e.g. to trip the breaker.
	before func(br *Breaker)
	// call issues the logical call under test; nil is a plain GET. started
	// is closed when the first request reaches the handler.
	call func(c *Client, url string, started <-chan struct{}) error
	want parityOutcome
}

func parityGet(c *Client, url string, _ <-chan struct{}) error {
	return c.GetJSON(context.Background(), url, nil)
}

func parityPost(ctx context.Context) func(*Client, string, <-chan struct{}) error {
	return func(c *Client, url string, _ <-chan struct{}) error {
		return c.PostJSON(ctx, url, map[string]int{"n": 7}, nil)
	}
}

func answer(status int) func(int64, http.ResponseWriter, *http.Request) {
	return func(_ int64, w http.ResponseWriter, _ *http.Request) {
		if status >= 400 {
			WriteError(w, status, "scripted")
			return
		}
		WriteJSON(w, status, map[string]string{"ok": "true"})
	}
}

func failFirst(fails int64, status int) func(int64, http.ResponseWriter, *http.Request) {
	return func(n int64, w http.ResponseWriter, r *http.Request) {
		if n <= fails {
			answer(status)(n, w, r)
			return
		}
		answer(http.StatusOK)(n, w, r)
	}
}

func parityScenarios() []parityScenario {
	closed := func(successes, failures int64) BreakerSnapshot {
		return BreakerSnapshot{State: "closed", Successes: successes, Failures: failures}
	}
	return []parityScenario{
		{name: "2xx", handler: answer(http.StatusOK), retry: fastRetry(3),
			want: parityOutcome{served: 1, breaker: closed(1, 0)}},
		{name: "4xx", handler: answer(http.StatusNotFound), retry: fastRetry(3),
			want: parityOutcome{errClass: "status", status: 404, served: 1, breaker: closed(1, 0)}},
		{name: "5xx-then-200", handler: failFirst(1, http.StatusInternalServerError), retry: fastRetry(3),
			want: parityOutcome{served: 2, retries: 1, breaker: closed(1, 1)}},
		{name: "429", handler: answer(http.StatusTooManyRequests), retry: fastRetry(3),
			want: parityOutcome{errClass: "status", status: 429, served: 3, retries: 2, breaker: closed(0, 3)}},
		{name: "transport failure", handler: nil, retry: fastRetry(3),
			want: parityOutcome{errClass: "transport", retries: 2, breaker: closed(0, 3)}},
		{name: "breaker open", handler: answer(http.StatusOK), retry: fastRetry(3),
			before: tripBreaker,
			want: parityOutcome{errClass: "circuit-open", shortCircuits: 1,
				breaker: BreakerSnapshot{State: "open", Opens: 1, Failures: 4, ShortCircuits: 1}}},
		{name: "caller cancel mid-attempt", retry: fastRetry(3),
			handler: func(_ int64, _ http.ResponseWriter, r *http.Request) { <-r.Context().Done() },
			call: func(c *Client, url string, started <-chan struct{}) error {
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					<-started
					cancel()
				}()
				return c.GetJSON(ctx, url, nil)
			},
			want: parityOutcome{errClass: "cancelled", served: 1, breaker: closed(0, 0)}},
		{name: "caller cancel releases the half-open probe", retry: fastRetry(3),
			handler: func(n int64, w http.ResponseWriter, r *http.Request) {
				if n == 1 {
					<-r.Context().Done()
					return
				}
				answer(http.StatusOK)(n, w, r)
			},
			before: func(br *Breaker) {
				tripBreaker(br)
				time.Sleep(br.cfg.OpenTimeout + 10*time.Millisecond)
			},
			call: func(c *Client, url string, started <-chan struct{}) error {
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					<-started
					cancel()
				}()
				if err := c.GetJSON(ctx, url, nil); !errors.Is(err, context.Canceled) {
					return errors.New("abandoned probe did not report the cancellation")
				}
				// The freed probe slot admits the next call, which recloses.
				return c.GetJSON(context.Background(), url, nil)
			},
			want: parityOutcome{served: 2,
				breaker: BreakerSnapshot{State: "closed", Opens: 1, Successes: 1, Failures: 4}}},
		{name: "retry budget exhausted", handler: answer(http.StatusInternalServerError),
			// A backoff drawn from [0, 1000h] cannot fit a 200ms deadline.
			retry: RetryPolicy{MaxAttempts: 5, BaseBackoff: 1000 * time.Hour, MaxBackoff: 1000 * time.Hour},
			call: func(c *Client, url string, _ <-chan struct{}) error {
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				defer cancel()
				return c.GetJSON(ctx, url, nil)
			},
			want: parityOutcome{errClass: "budget", status: 500, served: 1, retries: 1, breaker: closed(0, 1)}},
		{name: "POST not retried", handler: failFirst(1, http.StatusInternalServerError), retry: fastRetry(3),
			call: parityPost(context.Background()),
			want: parityOutcome{errClass: "status", status: 500, served: 1, breaker: closed(0, 1)}},
		{name: "POST retried under WithCallRetry", handler: failFirst(1, http.StatusInternalServerError), retry: fastRetry(3),
			call: parityPost(WithCallRetry(context.Background(), RetryPolicy{
				MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, RetryNonIdempotent: true})),
			want: parityOutcome{served: 2, retries: 1, breaker: closed(1, 1)}},
	}
}

// runParity plays one scenario against a fresh server and client.
func runParity(t *testing.T, sc parityScenario, balanced bool) parityOutcome {
	t.Helper()
	var served, badBodies atomic.Int64
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/x", func(w http.ResponseWriter, r *http.Request) {
		n := served.Add(1)
		if r.Method == http.MethodPost {
			if b, _ := io.ReadAll(r.Body); strings.TrimSpace(string(b)) != parityPayload {
				badBodies.Add(1)
			}
		}
		if n == 1 {
			close(started)
		}
		sc.handler(n, w, r)
	})
	s := startTestServer(t, mux)
	addr := s.Addr()
	if sc.handler == nil {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	opts := []ClientOption{WithRetry(sc.retry), WithBreaker(testBreakerConfig())}
	url := "http://" + addr + "/x"
	if balanced {
		one := ResolverFunc(func(context.Context, string) ([]string, error) { return []string{addr}, nil })
		opts = append(opts, WithBalancer(NewBalancer(one, BalancerConfig{})))
		url = BalancedURL("echo") + "/x"
	}
	c := NewClient(2*time.Second, opts...)
	if sc.before != nil {
		sc.before(c.breakers.get(addr))
	}
	call := sc.call
	if call == nil {
		call = parityGet
	}
	err := call(c, url, started)

	out := parityOutcome{
		served:        served.Load(),
		badBodies:     badBodies.Load(),
		retries:       c.Retries(),
		shortCircuits: c.ShortCircuits(),
		breaker:       c.ResilienceSnapshot().Breakers[addr],
	}
	out.errClass, out.status = parityClass(err)
	return out
}

// TestLiteralAndBalancedURLsShareOnePipeline pins the claim the client is
// built on: a literal URL is a one-address destination, so every scenario
// looks the same to the caller, the server, the client's counters and the
// destination's breaker whichever way the URL is spelled.
func TestLiteralAndBalancedURLsShareOnePipeline(t *testing.T) {
	for _, sc := range parityScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			literal := runParity(t, sc, false)
			balanced := runParity(t, sc, true)
			if literal != sc.want {
				t.Errorf("literal URL:\n got %+v\nwant %+v", literal, sc.want)
			}
			if balanced != sc.want {
				t.Errorf("svc:// URL:\n got %+v\nwant %+v", balanced, sc.want)
			}
		})
	}
}

// TestLiteralURLNeverHedged: a literal URL names one address — there is
// no sibling to hedge to — so even a hedging client with an armed delay
// and an unlimited budget issues each call exactly once, balancer or not.
func TestLiteralURLNeverHedged(t *testing.T) {
	var served atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		time.Sleep(10 * time.Millisecond) // well past the hedge delay
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "true"})
	})
	s := startTestServer(t, mux)
	c := NewClient(2*time.Second,
		WithHedge(HedgePolicy{MaxFraction: 1, MinSamples: 1, MaxDelay: time.Millisecond}))
	c.hedger.observeLatency(s.Addr(), time.Millisecond)

	const calls = 10
	for i := 0; i < calls; i++ {
		if err := c.GetJSON(context.Background(), s.URL()+"/ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := served.Load(); got != calls {
		t.Fatalf("server saw %d requests for %d calls", got, calls)
	}
	if snap := c.ResilienceSnapshot(); snap.Hedges != 0 || snap.HedgeEligible != 0 {
		t.Fatalf("literal URL entered the hedge path: %+v", snap)
	}
}
