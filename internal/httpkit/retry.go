package httpkit

import (
	"context"
	"math/rand"
	"net/http"
	"time"
)

// RetryPolicy governs how a Client re-issues failed calls. The zero value
// selects the defaults noted per field; MaxAttempts of 1 disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first (3).
	MaxAttempts int
	// BaseBackoff is the first attempt's backoff ceiling; each further
	// attempt doubles it (10ms). The actual sleep is drawn uniformly from
	// [0, ceiling] — "full jitter" — so synchronized clients spread out.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling (250ms).
	MaxBackoff time.Duration
	// RetryNonIdempotent also retries POSTs. Off by default: only GETs
	// are safe to blindly re-issue. Opt in per call with WithCallRetry
	// when a POST is known to be idempotent.
	RetryNonIdempotent bool
}

// DefaultRetryPolicy returns the stack-wide retry defaults.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
}

// normalized fills zero fields with defaults.
func (p RetryPolicy) normalized() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	return p
}

// readMethod reports whether a method only reads (GET or HEAD): safe to
// issue twice, and to serve from a non-owner shard.
func readMethod(method string) bool {
	return method == http.MethodGet || method == http.MethodHead
}

// repeatable reports whether the policy lets a call with this method be
// issued more than once — the one idempotency bar retries and hedges
// share.
func (p RetryPolicy) repeatable(method string) bool {
	return p.RetryNonIdempotent || readMethod(method)
}

type callRetryKey struct{}

// WithCallRetry overrides the client's retry policy for calls issued with
// the returned context — the per-call escape hatch for idempotent POSTs or
// latency-critical GETs that must not retry.
func WithCallRetry(ctx context.Context, p RetryPolicy) context.Context {
	return context.WithValue(ctx, callRetryKey{}, p.normalized())
}

// callRetryFrom extracts a per-call override, if any.
func callRetryFrom(ctx context.Context) (RetryPolicy, bool) {
	p, ok := ctx.Value(callRetryKey{}).(RetryPolicy)
	return p, ok
}

// retryableStatus reports whether a response status signals a transient
// server-side condition worth retrying. 4xx are application answers, not
// faults — except 429, which asks for backoff explicitly.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// backoff sleeps the full-jittered exponential delay for the given retry
// (1-based). It returns false — without sleeping — when the context is
// done or its remaining deadline budget cannot cover the drawn delay, so
// retries never push a call past the caller's deadline.
func backoff(ctx context.Context, p RetryPolicy, retry int) bool {
	ceiling := p.BaseBackoff << (retry - 1)
	if ceiling > p.MaxBackoff || ceiling <= 0 {
		ceiling = p.MaxBackoff
	}
	d := time.Duration(rand.Int63n(int64(ceiling) + 1))
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return false
	}
	if d == 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
