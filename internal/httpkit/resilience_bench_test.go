package httpkit

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// BenchmarkClientRetryOverhead measures the per-call cost the resilience
// layer adds on the happy path — policy resolution, breaker admission, and
// outcome recording — without the HTTP round-trip, by running the
// pipeline's own stages (Client.policy, call.candidates, Client.admit,
// Client.observe) on a resolved call. CI asserts this stays well under a
// microsecond so the layer is free at TeaStore request rates.
func BenchmarkClientRetryOverhead(b *testing.B) {
	c := NewClient(time.Second)
	ctx := context.Background()
	cl, err := c.resolve(ctx, http.MethodGet, "http://127.0.0.1:8080/x", nil, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, attempts := c.policy(ctx, cl.method)
		addrs, _ := cl.candidates(ctx)
		addr, br := c.admit(cl, addrs, nil, nil)
		if attempts == 0 || addr == "" {
			b.Fatal("happy path refused")
		}
		st := attemptState{addr: addr, br: br}
		c.observe(cl, &st, outcomeOK, time.Microsecond)
	}
}

// BenchmarkBreakerAllowRecord isolates the breaker state machine itself.
func BenchmarkBreakerAllowRecord(b *testing.B) {
	br := NewBreaker(DefaultBreakerConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if br.Allow() {
			br.Record(true)
		}
	}
}
