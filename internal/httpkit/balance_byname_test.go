package httpkit

import "context"

// By-name forms of the per-service routing calls, as the balancer and
// outlier tests spell them. The pipeline resolves the service handle once
// per call (Balancer.service) and calls these on it directly.

func (b *Balancer) candidates(ctx context.Context, name string) ([]string, error) {
	return b.service(name).candidates(ctx)
}

func (b *Balancer) pick(name string, candidates []string, avoid map[string]bool, key string, readFallback bool) string {
	return b.service(name).pick(candidates, avoid, key, readFallback)
}

func (b *Balancer) acquire(name, addr string) (release func()) {
	r := b.service(name).acquire(addr)
	return func() { r.inflight.Add(-1) }
}
