package sim

import (
	"testing"

	"repro/internal/desim"
	"repro/internal/memmodel"
	"repro/internal/topology"
	"repro/internal/workload"
)

func TestServiceNames(t *testing.T) {
	if WebUI.String() != "webui" || Registry.String() != "registry" {
		t.Fatal("service names wrong")
	}
	if Service(42).String() != "service(42)" {
		t.Fatal("out-of-range name wrong")
	}
	s, err := ParseService("auth")
	if err != nil || s != Auth {
		t.Fatalf("ParseService(auth) = %v, %v", s, err)
	}
	if _, err := ParseService("nope"); err == nil {
		t.Fatal("unknown service parsed")
	}
	if len(AllServices()) != NumServices {
		t.Fatal("AllServices wrong length")
	}
}

func TestDefaultSpecsValid(t *testing.T) {
	specs := DefaultRequestSpecs()
	if len(specs) != workload.NumRequests {
		t.Fatalf("have %d request specs, want %d", len(specs), workload.NumRequests)
	}
	for r, spec := range specs {
		if spec.Type != r {
			t.Errorf("spec for %v labelled %v", r, spec.Type)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("spec %v invalid: %v", r, err)
		}
		var demand desim.Duration
		for _, s := range AllServices() {
			demand += spec.DemandOn(s)
		}
		if demand <= 0 {
			t.Errorf("spec %v has no demand", r)
		}
	}
	profiles := DefaultProfiles()
	if len(profiles) != NumServices {
		t.Fatalf("have %d profiles, want %d", len(profiles), NumServices)
	}
}

func TestRequestSpecHelpers(t *testing.T) {
	spec := DefaultRequestSpecs()[workload.ReqProduct]
	if spec.DemandOn(WebUI) != spec.Pre+spec.Post {
		t.Fatal("DemandOn(WebUI) wrong")
	}
	if spec.DemandOn(Recommender) <= 0 {
		t.Fatal("product view should hit recommender")
	}
	if spec.DemandOn(Registry) != 0 {
		t.Fatal("requests must not hit registry")
	}
}

func TestRequestSpecValidation(t *testing.T) {
	bad := []RequestSpec{
		{Pre: -1},
		{Parallel: []Op{{Target: WebUI, Demand: 1}}},
		{Parallel: []Op{{Target: Service(99), Demand: 1}}},
		{Sequential: []Op{{Target: Auth, Demand: -1}}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSerialLock(t *testing.T) {
	var l serialLock
	var order []int
	var cpus []int
	grab := func(v int) func(int) {
		return func(cpu int) {
			order = append(order, v)
			cpus = append(cpus, cpu)
		}
	}
	l.acquire(7, grab(0)) // immediate, keeps caller cpu 7
	l.acquire(8, grab(1)) // queued
	l.acquire(9, grab(2)) // queued
	if len(order) != 1 {
		t.Fatalf("held lock granted %d times", len(order))
	}
	l.release(3) // grants 1 with handed-off cpu 3
	l.release(4) // grants 2 with cpu 4
	l.release(5) // frees
	for i, v := range order {
		if v != i {
			t.Fatalf("lock grant order %v not FIFO", order)
		}
	}
	if cpus[0] != 7 || cpus[1] != 3 || cpus[2] != 4 {
		t.Fatalf("cpu handoff wrong: %v", cpus)
	}
	defer func() {
		if recover() == nil {
			t.Error("release of free lock did not panic")
		}
	}()
	l.release(0)
}

func TestDeploymentValidate(t *testing.T) {
	mach := topology.Small()
	good := Unpinned(mach, "t", nil)
	if err := good.Validate(mach); err != nil {
		t.Fatalf("default deployment rejected: %v", err)
	}
	if good.Replicas(WebUI) != 1 {
		t.Fatal("replica count wrong")
	}

	missing := Deployment{Name: "m", Instances: good.Instances[1:]}
	if err := missing.Validate(mach); err == nil {
		t.Fatal("deployment missing a service accepted")
	}
	zeroWorkers := Unpinned(mach, "z", nil)
	zeroWorkers.Instances[0].Workers = 0
	if err := zeroWorkers.Validate(mach); err == nil {
		t.Fatal("zero workers accepted")
	}
	badCPU := Unpinned(mach, "b", nil)
	badCPU.Instances[0].Affinity = topology.NewCPUSet(9999)
	if err := badCPU.Validate(mach); err == nil {
		t.Fatal("out-of-machine affinity accepted")
	}
	badHome := Unpinned(mach, "h", nil)
	badHome.Instances[0].HomeNUMA = 77
	if err := badHome.Validate(mach); err == nil {
		t.Fatal("bad home node accepted")
	}
	if err := (Deployment{Name: "e"}).Validate(mach); err == nil {
		t.Fatal("empty deployment accepted")
	}
}

// smallConfig returns a quick config on the Small machine.
func smallConfig(users int, seed int64) Config {
	mach := topology.Small()
	return Config{
		Machine:    mach,
		Deployment: Unpinned(mach, "test", nil),
		Users:      users,
		Seed:       seed,
		Warmup:     2 * desim.Second,
		Measure:    5 * desim.Second,
	}
}

func TestRunSmokeAndInvariants(t *testing.T) {
	res, err := Run(smallConfig(40, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	if res.Latency.Count == 0 || res.Latency.P50 <= 0 {
		t.Fatal("no latency samples")
	}
	if res.Latency.P99 < res.Latency.P50 {
		t.Fatal("p99 < p50")
	}
	if res.MachineUtil <= 0 || res.MachineUtil > 1 {
		t.Fatalf("machine util %v outside (0,1]", res.MachineUtil)
	}
	// Every request passes WebUI: it must be the top consumer here.
	var topSvc Service
	var topShare float64
	var shareSum float64
	for _, st := range res.Services {
		shareSum += st.BusyShare
		if st.BusyShare > topShare {
			topShare = st.BusyShare
			topSvc = st.Service
		}
	}
	if topSvc != WebUI {
		t.Fatalf("top consumer = %v, want webui\n%v", topSvc, res)
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Fatalf("busy shares sum to %v", shareSum)
	}
	if res.ServiceStat(Registry).BusyShare > 0.02 {
		t.Fatal("registry share should be negligible")
	}
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(smallConfig(20, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(20, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Latency.P99 != b.Latency.P99 {
		t.Fatalf("same seed diverged: %v vs %v req/s", a.Throughput, b.Throughput)
	}
	c, err := Run(smallConfig(20, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency.Mean == c.Latency.Mean && a.Throughput == c.Throughput {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestThroughputSaturatesWithUsers(t *testing.T) {
	// Doubling a small population should raise throughput roughly
	// linearly; at very large populations it must stop growing.
	t40, err := Run(smallConfig(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	t80, err := Run(smallConfig(80, 3))
	if err != nil {
		t.Fatal(err)
	}
	t3k, err := Run(smallConfig(3000, 3))
	if err != nil {
		t.Fatal(err)
	}
	t5k, err := Run(smallConfig(5000, 3))
	if err != nil {
		t.Fatal(err)
	}
	if t80.Throughput < t40.Throughput*1.5 {
		t.Fatalf("light-load scaling broken: 40→%v, 80→%v", t40.Throughput, t80.Throughput)
	}
	if t5k.Throughput > t3k.Throughput*1.25 {
		t.Fatalf("no saturation: 3000→%v, 5000→%v", t3k.Throughput, t5k.Throughput)
	}
	if t5k.Latency.P50 < t80.Latency.P50 {
		t.Fatal("latency should rise under saturation")
	}
}

func TestMoreCoresMoreThroughput(t *testing.T) {
	// Same offered load on 4 vs 16 logical CPUs (via a bigger machine)
	// must not be slower.
	small, err := Run(smallConfig(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	mach := topology.Rome1S()
	big, err := Run(Config{
		Machine:    mach,
		Deployment: Unpinned(mach, "big", nil),
		Users:      300,
		Seed:       5,
		Warmup:     2 * desim.Second,
		Measure:    5 * desim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both machines serve the offered load at 300 users; the big machine
	// must match it (within closed-loop noise) and win decisively on tail
	// latency.
	if big.Throughput < small.Throughput*0.97 {
		t.Fatalf("128-CPU machine slower than 16-CPU: %v vs %v", big.Throughput, small.Throughput)
	}
	if big.Latency.P99 > small.Latency.P99 {
		t.Fatal("128-CPU machine has worse tail under identical load")
	}
}

func TestConfigValidation(t *testing.T) {
	mach := topology.Small()
	base := smallConfig(10, 1)
	cases := []func(Config) Config{
		func(c Config) Config { c.Machine = nil; return c },
		func(c Config) Config { c.Users = 0; return c },
		func(c Config) Config { c.Measure = 0; return c },
		func(c Config) Config { c.Warmup = -1; return c },
		func(c Config) Config { c.Deployment = Deployment{}; return c },
		func(c Config) Config {
			c.Workload = &workload.Profile{Name: "bad"}
			return c
		},
	}
	for i, mutate := range cases {
		if _, err := Run(mutate(base)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	_ = mach
}

func TestPinnedDeploymentRuns(t *testing.T) {
	mach := topology.Small()
	d := Deployment{Name: "pinned"}
	for i, s := range AllServices() {
		ccx := i % mach.NumCCXs()
		d.Instances = append(d.Instances, InstanceSpec{
			Service:  s,
			Affinity: mach.CPUsOfCCX(ccx),
			Workers:  8,
			HomeNUMA: 0,
		})
	}
	res, err := Run(Config{
		Machine:    mach,
		Deployment: d,
		Users:      40,
		Seed:       2,
		Warmup:     desim.Second,
		Measure:    3 * desim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("pinned deployment produced no throughput")
	}
}

func TestMicrobenchScalesWithCores(t *testing.T) {
	mach := topology.Rome1S()
	run := func(cores int, svc Service) float64 {
		res, err := Microbench(MicrobenchConfig{
			Machine: mach,
			Service: svc,
			Demand:  desim.Duration(500 * desim.Microsecond),
			Cores:   cores,
			Seed:    1,
			Warmup:  desim.Second,
			Measure: 3 * desim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.OpsPerSec
	}
	// Auth (near-linear) should scale much better 1→16 cores than
	// Persistence (contended).
	authGain := run(16, Auth) / run(1, Auth)
	persGain := run(16, Persistence) / run(1, Persistence)
	if authGain < 8 {
		t.Fatalf("auth 16-core gain = %.1f, want ≥8", authGain)
	}
	if persGain >= authGain {
		t.Fatalf("persistence gain %.1f should trail auth gain %.1f", persGain, authGain)
	}
}

func TestMicrobenchValidation(t *testing.T) {
	mach := topology.Small()
	bad := []MicrobenchConfig{
		{},
		{Machine: mach, Cores: 0, Demand: 1, Measure: 1},
		{Machine: mach, Cores: 999, Demand: 1, Measure: 1},
		{Machine: mach, Cores: 1, Demand: 0, Measure: 1},
		{Machine: mach, Cores: 1, Demand: 1, Measure: 0},
	}
	for i, cfg := range bad {
		if _, err := Microbench(cfg); err == nil {
			t.Errorf("bad microbench config %d accepted", i)
		}
	}
}

func TestInterleavedMemorySupported(t *testing.T) {
	mach := topology.Rome2S()
	d := Unpinned(mach, "il", nil)
	for i := range d.Instances {
		d.Instances[i].HomeNUMA = memmodel.Interleaved
	}
	res, err := Run(Config{
		Machine: mach, Deployment: d, Users: 50, Seed: 1,
		Warmup: desim.Second, Measure: 2 * desim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("interleaved run produced nothing")
	}
}
