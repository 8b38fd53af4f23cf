package httpkit

import (
	"math/rand"
	"net/http"
	"time"
)

// ChaosConfig is the fault-injection spec a Server applies to its real
// routes (observability endpoints are exempt so a stack under chaos stays
// debuggable). The zero value injects nothing. Faults compose: a request
// can be delayed and then errored; a blackholed request never reaches the
// handler and is held until the client abandons it.
type ChaosConfig struct {
	// Latency is added to every request before the handler runs.
	Latency time.Duration `json:"latency"`
	// Jitter adds a further uniform random delay in [0, Jitter].
	Jitter time.Duration `json:"jitter"`
	// ErrorRate is the probability of answering 500 without running the
	// handler.
	ErrorRate float64 `json:"errorRate"`
	// BlackholeRate is the probability of swallowing the request whole:
	// no response bytes until the client's context or timeout gives up.
	BlackholeRate float64 `json:"blackholeRate"`
	// Until bounds the fault in time: past it the config behaves as if it
	// had been cleared, and the server lazily uninstalls it. Zero means
	// the fault persists until explicitly cleared. Time-bounded faults
	// let gameday scenarios and tests inject a fault window without
	// racing a manual clear — leaked chaos can't poison later phases.
	Until time.Time `json:"until,omitempty"`
}

// For returns a copy of the config that expires d from now.
func (c ChaosConfig) For(d time.Duration) ChaosConfig {
	c.Until = time.Now().Add(d)
	return c
}

// expired reports whether a time bound has lapsed.
func (c ChaosConfig) expired() bool {
	return !c.Until.IsZero() && time.Now().After(c.Until)
}

// enabled reports whether the config injects any fault at all.
func (c ChaosConfig) enabled() bool {
	return c.Latency > 0 || c.Jitter > 0 || c.ErrorRate > 0 || c.BlackholeRate > 0
}

// SetChaos installs (or, with a zero config, removes) fault injection on
// the server. Safe to call while serving — chaos tests flip faults on
// mid-run.
func (s *Server) SetChaos(cfg ChaosConfig) {
	if !cfg.enabled() {
		s.chaos.Store(nil)
		return
	}
	s.chaos.Store(&cfg)
}

// Chaos returns the active fault-injection config (zero when disabled or
// past its time bound).
func (s *Server) Chaos() ChaosConfig {
	if cfg := s.activeChaos(); cfg != nil {
		return *cfg
	}
	return ChaosConfig{}
}

// activeChaos loads the installed config, lazily uninstalling one whose
// time bound has lapsed. CompareAndSwap keeps a concurrent SetChaos from
// being clobbered by the expiry of the config it replaced.
func (s *Server) activeChaos() *ChaosConfig {
	cfg := s.chaos.Load()
	if cfg != nil && cfg.expired() {
		s.chaos.CompareAndSwap(cfg, nil)
		return nil
	}
	return cfg
}

// ChaosInjected counts faults injected since process start.
func (s *Server) ChaosInjected() int64 { return s.chaosInjected.Load() }

// injectChaos is the fault-injection stage, innermost in Server.serve so
// injected latency and errors are observed by the tracing/histogram stage
// exactly like real handler behaviour. It reports whether the fault
// consumed the request (blackholed, abandoned during the delay, or
// answered with an injected error); otherwise the handler runs.
func (s *Server) injectChaos(w http.ResponseWriter, r *http.Request) bool {
	cfg := s.activeChaos()
	if cfg == nil {
		return false
	}
	if cfg.BlackholeRate > 0 && rand.Float64() < cfg.BlackholeRate {
		s.chaosInjected.Add(1)
		<-r.Context().Done()
		return true
	}
	if d := chaosDelay(*cfg); d > 0 {
		s.chaosInjected.Add(1)
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.Context().Done():
			return true
		}
	}
	if cfg.ErrorRate > 0 && rand.Float64() < cfg.ErrorRate {
		s.chaosInjected.Add(1)
		WriteError(w, http.StatusInternalServerError, "chaos: injected failure")
		return true
	}
	return false
}

// chaosDelay draws the injected latency for one request.
func chaosDelay(cfg ChaosConfig) time.Duration {
	d := cfg.Latency
	if cfg.Jitter > 0 {
		d += time.Duration(rand.Int63n(int64(cfg.Jitter) + 1))
	}
	return d
}
