package sim

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/topology"
)

// InstanceSpec places one service instance on the machine.
type InstanceSpec struct {
	Service Service
	// Affinity is the CPU set the instance's threads may run on. Empty
	// means unpinned (whole machine) — the OS-default configuration.
	Affinity topology.CPUSet
	// Workers is the size of the instance's request-worker pool (its
	// servlet thread pool).
	Workers int
	// HomeNUMA is the node holding the instance's heap, or
	// memmodel.Interleaved.
	HomeNUMA int
}

// Deployment is a complete placement of the application.
type Deployment struct {
	Name      string
	Instances []InstanceSpec
}

// Validate checks the deployment against a machine: every service must
// have at least one instance, worker counts must be positive, affinities
// and home nodes must exist.
func (d Deployment) Validate(mach *topology.Machine) error {
	if len(d.Instances) == 0 {
		return fmt.Errorf("sim: deployment %q has no instances", d.Name)
	}
	var have [NumServices]bool
	for i, inst := range d.Instances {
		if inst.Service < 0 || inst.Service >= numServices {
			return fmt.Errorf("sim: deployment %q instance %d has invalid service %d", d.Name, i, inst.Service)
		}
		have[inst.Service] = true
		if inst.Workers <= 0 {
			return fmt.Errorf("sim: deployment %q instance %d (%v) has %d workers", d.Name, i, inst.Service, inst.Workers)
		}
		if inst.HomeNUMA != memmodel.Interleaved && (inst.HomeNUMA < 0 || inst.HomeNUMA >= mach.NumNUMA()) {
			return fmt.Errorf("sim: deployment %q instance %d (%v) homes on invalid node %d", d.Name, i, inst.Service, inst.HomeNUMA)
		}
		bad := -1
		inst.Affinity.ForEach(func(id int) {
			if !mach.ValidCPU(id) && bad < 0 {
				bad = id
			}
		})
		if bad >= 0 {
			return fmt.Errorf("sim: deployment %q instance %d (%v) pins to CPU %d outside machine", d.Name, i, inst.Service, bad)
		}
	}
	for s := Service(0); s < numServices; s++ {
		if !have[s] {
			return fmt.Errorf("sim: deployment %q missing service %v", d.Name, s)
		}
	}
	return nil
}

// Replicas counts instances of a service.
func (d Deployment) Replicas(s Service) int {
	n := 0
	for _, inst := range d.Instances {
		if inst.Service == s {
			n++
		}
	}
	return n
}

// Unpinned returns the OS-default deployment: one instance per service
// (replicas[s] overrides, when provided), no affinity, interleaved memory,
// workers sized to the machine.
func Unpinned(mach *topology.Machine, name string, replicas map[Service]int) Deployment {
	d := Deployment{Name: name}
	for _, s := range AllServices() {
		n := 1
		if replicas != nil && replicas[s] > 0 {
			n = replicas[s]
		}
		for i := 0; i < n; i++ {
			d.Instances = append(d.Instances, InstanceSpec{
				Service:  s,
				Workers:  defaultWorkers(s, mach.NumCPUs()),
				HomeNUMA: memmodel.Interleaved,
			})
		}
	}
	return d
}

// defaultWorkers sizes an instance's thread pool for a CPU allotment,
// mirroring typical servlet-container defaults (bounded, CPU-proportional).
func defaultWorkers(s Service, cpus int) int {
	w := cpus
	if s == Registry {
		w = 4
	}
	if w < 4 {
		w = 4
	}
	if w > 128 {
		w = 128
	}
	return w
}
