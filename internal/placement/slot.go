package placement

// This file is the slot model: where placement.go builds whole simulated
// deployments (sim.Deployment) for the paper's configuration sweep, Slot
// and Policy place replicas one at a time, in the order the real stack
// boots them, onto cells of a topology.Machine model.
//
// A Slot is a CPU budget plus an affinity cell. Its capacity is its
// *effective* core count — the budget discounted for cores shared with
// co-resident slots and for spans across L3 (CCX) boundaries — and
// SlotCap turns that into an admission cap. Packed placement loses
// capacity to straddling and overlap; CCX-aware placement keeps every
// replica inside one L3 domain and loses nothing.
//
// The real stack cannot pin goroutines to cores, so on it a placement
// could only ever take effect as admission caps. Predict therefore is
// the whole real-stack placement result: Σ caps per service under each
// policy, whose ratio is the throughput ratio a cap-bound stack reaches.
// The topology claims themselves rest on the simulator (placement.go).

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/topology"
)

// Slot is one replica's CPU budget and affinity cell.
type Slot struct {
	// Service is the replica's service name ("webui", "image", ...).
	Service string
	// Policy names the policy that assigned the slot.
	Policy string
	// Level is the cell granularity: LevelCCX or LevelNUMA for cell
	// policies, LevelCore for packed core runs.
	Level topology.Level
	// Cell is the cell id at Level (CCX id, NUMA node id, or the first
	// core id of a packed run).
	Cell int
	// CPUs is the affinity set: the logical CPUs the replica may run on.
	CPUs topology.CPUSet
	// Budget is the replica's CPU budget in physical cores; capacity is
	// derived from min(Budget, fair share of CPUs), never from the full
	// affinity set — a replica allowed to roam a NUMA node still only
	// gets Budget cores of work done.
	Budget int
}

// Label renders the slot as a compact registry/metrics label,
// e.g. "ccx:1/4-7,12-15" (level:cell/cpuset).
func (s Slot) Label() string {
	return fmt.Sprintf("%s:%d/%s", s.Level, s.Cell, s.CPUs.String())
}

func (s Slot) String() string {
	return fmt.Sprintf("%s %s budget=%d", s.Service, s.Label(), s.Budget)
}

// StraddlePenalty is the fractional capacity cost per additional CCX a
// slot's affinity set spans: threads migrating across L3 slices refill
// cache they already had, so a budget spread over k CCXs delivers
// 1/(1+StraddlePenalty·(k−1)) of its single-CCX capacity. Calibrated to
// the paper's observed cross-CCX degradation band.
const StraddlePenalty = 0.3

// Policy assigns slots to new replicas, one at a time. Implementations
// are stateless: each Assign decision is a pure function of the machine,
// the demand shares, and the slots currently live, so a reconciler and a
// stack holding separate policy instances with the same configuration
// make identical choices.
type Policy interface {
	// Assign picks the slot for a new replica of service given every slot
	// currently live (across all services — contention is machine-wide).
	Assign(service string, existing []Slot) (Slot, error)
}

// PolicyNames lists the valid NewPolicy names.
func PolicyNames() []string { return []string{"packed", "ccx", "numa"} }

// NewPolicy builds a named placement policy over a machine model.
// shares weights cell contention by per-service demand (nil falls back
// to DefaultNamedShares); slotCores is the per-replica CPU budget in
// physical cores (0 → 2).
func NewPolicy(name string, mach *topology.Machine, shares map[string]float64, slotCores int) (Policy, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: policy %q needs a machine model", name)
	}
	if slotCores <= 0 {
		slotCores = 2
	}
	if slotCores > mach.NumCores() {
		return nil, fmt.Errorf("placement: slot budget %d cores exceeds the %d-core machine", slotCores, mach.NumCores())
	}
	if shares == nil {
		shares = DefaultNamedShares()
	}
	switch name {
	case "packed":
		return &packedPolicy{mach: mach, slotCores: slotCores}, nil
	case "ccx":
		return newCellPolicy("ccx", topology.LevelCCX, mach, shares, slotCores)
	case "numa":
		return newCellPolicy("numa", topology.LevelNUMA, mach, shares, slotCores)
	default:
		return nil, fmt.Errorf("placement: unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
	}
}

// DefaultNamedShares is DefaultShares keyed by service name — the form
// the real stack (which does not speak sim.Service) consumes.
func DefaultNamedShares() map[string]float64 {
	out := map[string]float64{}
	for svc, share := range DefaultShares() {
		out[svc.String()] = share
	}
	return out
}

// packedPolicy pins replicas to contiguous core runs in arrival order,
// ignoring CCX boundaries and wrapping at the end of the machine — naive
// pinning, the paper's "packed" configuration. The cursor is derived
// from the live slots, keeping Assign stateless.
type packedPolicy struct {
	mach      *topology.Machine
	slotCores int
}

func (p *packedPolicy) Assign(service string, existing []Slot) (Slot, error) {
	cursor := 0
	for _, s := range existing {
		cursor += s.Budget
	}
	var set topology.CPUSet
	first := cursor % p.mach.NumCores()
	for i := 0; i < p.slotCores; i++ {
		core := (cursor + i) % p.mach.NumCores()
		for _, id := range p.mach.CoreSiblings(core) {
			set.Add(id)
		}
	}
	return Slot{
		Service: service, Policy: "packed",
		Level: topology.LevelCore, Cell: first,
		CPUs: set, Budget: p.slotCores,
	}, nil
}

// cellPolicy places each replica in the least-contended cell at its
// level, where contention is the demand-share-weighted population of
// slots already overlapping the cell. The slot's affinity is the whole
// cell — cell-mates share it — and its budget stays slotCores.
type cellPolicy struct {
	name      string
	level     topology.Level
	mach      *topology.Machine
	shares    map[string]float64
	slotCores int
	cells     []topology.CPUSet
}

func newCellPolicy(name string, level topology.Level, mach *topology.Machine, shares map[string]float64, slotCores int) (*cellPolicy, error) {
	p := &cellPolicy{name: name, level: level, mach: mach, shares: shares, slotCores: slotCores}
	switch level {
	case topology.LevelCCX:
		for i := 0; i < mach.NumCCXs(); i++ {
			p.cells = append(p.cells, mach.CPUsOfCCX(i))
		}
	case topology.LevelNUMA:
		for i := 0; i < mach.NumNUMA(); i++ {
			p.cells = append(p.cells, mach.CPUsOfNUMA(i))
		}
	default:
		return nil, fmt.Errorf("placement: no cell policy at level %v", level)
	}
	return p, nil
}

// weight is a service's contention contribution: its demand share, or
// the mean share for services the map does not know.
func (p *cellPolicy) weight(service string) float64 {
	if w, ok := p.shares[service]; ok && w > 0 {
		return w
	}
	if len(p.shares) == 0 {
		return 1
	}
	total := 0.0
	for _, w := range p.shares {
		total += w
	}
	return total / float64(len(p.shares))
}

func (p *cellPolicy) Assign(service string, existing []Slot) (Slot, error) {
	best, bestLoad := -1, 0.0
	for i, cell := range p.cells {
		load := 0.0
		for _, s := range existing {
			inter := s.CPUs.Intersect(cell).Count()
			if inter == 0 {
				continue
			}
			// A slot straddling cells contributes proportionally to each.
			load += p.weight(s.Service) * float64(inter) / float64(s.CPUs.Count())
		}
		if best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best < 0 {
		return Slot{}, fmt.Errorf("placement: %s policy has no cells on %s", p.name, p.mach.Name())
	}
	return Slot{
		Service: service, Policy: p.name,
		Level: p.level, Cell: best,
		CPUs: p.cells[best].Clone(), Budget: p.slotCores,
	}, nil
}

// EffectiveCores is the capacity a slot actually delivers, in physical
// cores: the fair share of its affinity cores (cores host every slot
// whose affinity includes them, splitting evenly), capped at the slot's
// budget, then discounted for every additional CCX the affinity set
// spans (StraddlePenalty). all must include slot itself.
func EffectiveCores(slot Slot, all []Slot, mach *topology.Machine) float64 {
	occupancy := map[int]int{} // physical core → number of slots on it
	for _, s := range all {
		for _, core := range coresOfSet(mach, s.CPUs) {
			occupancy[core]++
		}
	}
	fair := 0.0
	ccxs := map[int]bool{}
	for _, core := range coresOfSet(mach, slot.CPUs) {
		if n := occupancy[core]; n > 0 {
			fair += 1 / float64(n)
		}
		ccxs[mach.CPU(mach.CoreSiblings(core)[0]).CCX] = true
	}
	if fair > float64(slot.Budget) {
		fair = float64(slot.Budget)
	}
	if span := len(ccxs); span > 1 {
		fair /= 1 + StraddlePenalty*float64(span-1)
	}
	return fair
}

// SlotCap converts a slot's effective cores into an inflight admission
// bound at capPerCore concurrent requests per core (0 → 2), flooring so
// the budget never promises more than the hardware and never less than
// one admitted request.
func SlotCap(slot Slot, all []Slot, mach *topology.Machine, capPerCore int) int {
	if capPerCore <= 0 {
		capPerCore = 2
	}
	n := int(EffectiveCores(slot, all, mach) * float64(capPerCore))
	if n < 1 {
		n = 1
	}
	return n
}

// coresOfSet lists the distinct physical cores a CPU set touches, in
// ascending order.
func coresOfSet(mach *topology.Machine, set topology.CPUSet) []int {
	seen := map[int]bool{}
	var out []int
	set.ForEach(func(id int) {
		if !mach.ValidCPU(id) {
			return
		}
		c := mach.CPU(id).Core
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	})
	sort.Ints(out)
	return out
}

// SlotCores is each predicted replica's CPU budget in physical cores,
// and CapPerCore the admission cap granted per effective slot core.
const (
	SlotCores  = 3
	CapPerCore = 4
)

// BootOrder lists the stack's replicable services in the order it boots
// them; each service's extra replicas follow its first, consecutively.
var BootOrder = []string{"persistence", "auth", "recommender", "image", "webui"}

// Prediction is one policy's placement of the stack's replicas.
type Prediction struct {
	Policy string
	// Slots are the replicas' slots in boot order; Caps[i] is Slots[i]'s
	// admission cap against every slot on the machine.
	Slots []Slot
	Caps  []int
	// Sum is Σ caps per service, and VsPacked each Sum over packed's: the
	// throughput ratio of a stack whose capacity is its admission caps.
	Sum      map[string]int
	VsPacked map[string]float64
}

// Predict places the stack's replicas (one per BootOrder service unless
// replicas says otherwise) under every policy in PolicyNames order, at
// SlotCores and CapPerCore, with the default demand shares.
func Predict(mach *topology.Machine, replicas map[string]int) ([]Prediction, error) {
	counts := map[string]int{}
	for _, svc := range BootOrder {
		counts[svc] = 1
	}
	for svc, n := range replicas {
		if counts[svc] == 0 || n < 1 {
			return nil, fmt.Errorf("placement: bad replica count %s=%d (services: %s)",
				svc, n, strings.Join(BootOrder, ", "))
		}
		counts[svc] = n
	}
	var preds []Prediction
	for _, name := range PolicyNames() {
		pol, err := NewPolicy(name, mach, nil, SlotCores)
		if err != nil {
			return nil, err
		}
		p := Prediction{Policy: name, Sum: map[string]int{}, VsPacked: map[string]float64{}}
		for _, svc := range BootOrder {
			for i := 0; i < counts[svc]; i++ {
				slot, err := pol.Assign(svc, p.Slots)
				if err != nil {
					return nil, err
				}
				p.Slots = append(p.Slots, slot)
			}
		}
		for _, slot := range p.Slots {
			c := SlotCap(slot, p.Slots, mach, CapPerCore)
			p.Caps = append(p.Caps, c)
			p.Sum[slot.Service] += c
		}
		preds = append(preds, p)
	}
	// PolicyNames puts packed first; SlotCap floors at 1, so no Sum is 0.
	for _, p := range preds {
		for svc, sum := range p.Sum {
			p.VsPacked[svc] = float64(sum) / float64(preds[0].Sum[svc])
		}
	}
	return preds, nil
}
