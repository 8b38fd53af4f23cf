package sim

import (
	"fmt"

	"repro/internal/desim"
	"repro/internal/workload"
)

// Op is one downstream call a request makes from the WebUI orchestrator.
type Op struct {
	// Target is the callee service.
	Target Service
	// Demand is the median handler CPU demand at the callee.
	Demand desim.Duration
	// Payload is the response size in bytes (drives serialization CPU and
	// is reported to the interconnect model).
	Payload int
}

// RequestSpec describes how one user-visible request executes: WebUI
// pre-work, a parallel fan-out, a sequential tail, and WebUI post-work.
// This mirrors TeaStore's synchronous-servlet WebUI, which holds its worker
// for the whole request while downstream calls proceed.
type RequestSpec struct {
	Type workload.Request
	// Pre and Post are the WebUI's own median CPU demands before the
	// fan-out and after the last response.
	Pre, Post desim.Duration
	// Parallel ops are issued concurrently after Pre.
	Parallel []Op
	// Sequential ops run one after another once the parallel group
	// completes (e.g. checkout: validate, then write the order).
	Sequential []Op
}

// Validate reports the first structural problem.
func (r RequestSpec) Validate() error {
	if r.Pre < 0 || r.Post < 0 {
		return fmt.Errorf("sim: request %v has negative WebUI demand", r.Type)
	}
	for _, op := range append(append([]Op{}, r.Parallel...), r.Sequential...) {
		if op.Target < 0 || op.Target >= numServices {
			return fmt.Errorf("sim: request %v targets invalid service %d", r.Type, op.Target)
		}
		if op.Target == WebUI {
			return fmt.Errorf("sim: request %v fans out to WebUI itself", r.Type)
		}
		if op.Demand < 0 || op.Payload < 0 {
			return fmt.Errorf("sim: request %v has negative op demand/payload", r.Type)
		}
	}
	return nil
}

// DemandOn sums the request's median demand on one service.
func (r RequestSpec) DemandOn(s Service) desim.Duration {
	var total desim.Duration
	if s == WebUI {
		total += r.Pre + r.Post
	}
	for _, op := range r.Parallel {
		if op.Target == s {
			total += op.Demand
		}
	}
	for _, op := range r.Sequential {
		if op.Target == s {
			total += op.Demand
		}
	}
	return total
}

// DefaultRequestSpecs returns the calibrated request execution graph: the
// TeaStore fan-out per store action. Demands are medians on one idle core
// at base frequency.
func DefaultRequestSpecs() map[workload.Request]RequestSpec {
	us := func(n int64) desim.Duration { return desim.Duration(n) * desim.Microsecond }
	return map[workload.Request]RequestSpec{
		workload.ReqHome: {
			Type: workload.ReqHome, Pre: us(600), Post: us(300),
			Parallel: []Op{
				{Target: Persistence, Demand: us(300), Payload: 2 << 10},
				{Target: Image, Demand: us(250), Payload: 30 << 10},
			},
		},
		workload.ReqLogin: {
			Type: workload.ReqLogin, Pre: us(400), Post: us(250),
			Sequential: []Op{
				{Target: Auth, Demand: us(1200), Payload: 1 << 10}, // password hash verify
				{Target: Persistence, Demand: us(350), Payload: 2 << 10},
			},
		},
		workload.ReqCategory: {
			Type: workload.ReqCategory, Pre: us(500), Post: us(450),
			Parallel: []Op{
				{Target: Auth, Demand: us(120), Payload: 512},
				{Target: Persistence, Demand: us(700), Payload: 8 << 10},
				{Target: Image, Demand: us(1300), Payload: 150 << 10}, // 20 preview images
			},
		},
		workload.ReqProduct: {
			Type: workload.ReqProduct, Pre: us(450), Post: us(400),
			Parallel: []Op{
				{Target: Auth, Demand: us(120), Payload: 512},
				{Target: Persistence, Demand: us(300), Payload: 3 << 10},
				{Target: Image, Demand: us(700), Payload: 80 << 10},
				{Target: Recommender, Demand: us(900), Payload: 1 << 10},
			},
		},
		workload.ReqAddToCart: {
			Type: workload.ReqAddToCart, Pre: us(350), Post: us(200),
			Sequential: []Op{
				{Target: Auth, Demand: us(400), Payload: 1 << 10}, // cart re-sign
			},
		},
		workload.ReqViewCart: {
			Type: workload.ReqViewCart, Pre: us(400), Post: us(300),
			Parallel: []Op{
				{Target: Auth, Demand: us(300), Payload: 1 << 10},
				{Target: Recommender, Demand: us(700), Payload: 1 << 10},
				{Target: Image, Demand: us(500), Payload: 60 << 10},
			},
		},
		workload.ReqCheckout: {
			Type: workload.ReqCheckout, Pre: us(400), Post: us(250),
			Sequential: []Op{
				{Target: Auth, Demand: us(350), Payload: 1 << 10},
				{Target: Persistence, Demand: us(900), Payload: 2 << 10}, // order write
			},
		},
		workload.ReqProfile: {
			Type: workload.ReqProfile, Pre: us(350), Post: us(250),
			Parallel: []Op{
				{Target: Auth, Demand: us(120), Payload: 512},
				{Target: Persistence, Demand: us(600), Payload: 4 << 10},
			},
		},
		workload.ReqLogout: {
			Type: workload.ReqLogout, Pre: us(250), Post: us(150),
			Sequential: []Op{
				{Target: Auth, Demand: us(150), Payload: 256},
			},
		},
	}
}
