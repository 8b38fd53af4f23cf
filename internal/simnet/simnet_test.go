package simnet

import (
	"testing"

	"repro/internal/desim"
	"repro/internal/topology"
)

func newFabric(t *testing.T, mach *topology.Machine) *Fabric {
	t.Helper()
	f, err := NewFabric(mach, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLatencyOrdering(t *testing.T) {
	mach := topology.Rome2S()
	f := newFabric(t, mach)
	sameCCX := f.Latency(0, 1)
	sameCCD := f.Latency(0, 4)
	sameSock := f.Latency(0, 8)
	crossSock := f.Latency(0, 64)
	if !(sameCCX < sameCCD && sameCCD < sameSock && sameSock < crossSock) {
		t.Fatalf("latency ordering violated: ccx=%v ccd=%v sock=%v cross=%v",
			sameCCX, sameCCD, sameSock, crossSock)
	}
}

func TestAvgLatencyBetweenExtremes(t *testing.T) {
	mach := topology.Rome2S()
	f := newFabric(t, mach)
	near := f.AvgLatency(0, mach.CPUsOfCCX(0))
	wholeMachine := f.AvgLatency(0, topology.CPUSet{})
	far := f.AvgLatency(0, mach.CPUsOfSocket(1))
	if !(near < wholeMachine && wholeMachine < far) {
		t.Fatalf("avg latency ordering violated: near=%v whole=%v far=%v", near, wholeMachine, far)
	}
	if far != DefaultParams().Latency[topology.LevelMachine] {
		t.Fatalf("far = %v, want pure cross-socket latency", far)
	}
}

func TestAvgLatencyCached(t *testing.T) {
	mach := topology.Rome2S()
	f := newFabric(t, mach)
	set := mach.CPUsOfSocket(1)
	a := f.AvgLatency(3, set) // CPU 3 is CCX 0 like CPU 0
	b := f.AvgLatency(0, set)
	if a != b {
		t.Fatalf("same-CCX callers should hit cache identically: %v vs %v", a, b)
	}
}

func TestCPUCosts(t *testing.T) {
	mach := topology.Rome2S()
	f := newFabric(t, mach)
	sendNear, recvNear := f.CPUCosts(topology.LevelCCX, 2048)
	p := DefaultParams()
	wantSend := p.SendCPU + 2*p.PerKBCPU
	if sendNear != wantSend {
		t.Fatalf("send cost = %v, want %v", sendNear, wantSend)
	}
	_, recvFar := f.CPUCosts(topology.LevelMachine, 2048)
	if recvFar <= recvNear {
		t.Fatal("cross-socket receive should cost more CPU")
	}
}

func TestParamsValidation(t *testing.T) {
	p := DefaultParams()
	p.Latency[topology.LevelCCD] = desim.Duration(desim.Microsecond) // below CCX: non-monotone
	if _, err := NewFabric(topology.Small(), p); err == nil {
		t.Fatal("non-monotone latency accepted")
	}
	p = DefaultParams()
	p.SendCPU = -1
	if _, err := NewFabric(topology.Small(), p); err == nil {
		t.Fatal("negative SendCPU accepted")
	}
	p = DefaultParams()
	p.CrossSocketCPUFactor = 0.5
	if _, err := NewFabric(topology.Small(), p); err == nil {
		t.Fatal("sub-1 cross-socket factor accepted")
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}
