// Command topoviz prints the modeled server topologies: the containment
// tree (socket → NUMA → CCD → CCX → cores) and the NUMA distance matrix.
// With -placement it additionally renders placement.Predict: where a
// policy puts the stack's replicas on that machine, each replica's
// admission cap, and Σ caps per service with its ratio against packed —
// the throughput ratio a cap-bound real stack reaches.
//
// Usage:
//
//	topoviz [-machine rome-2s]
//	        [-placement packed|ccx|numa|all] [-replicas webui=3,image=2]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/placement"
	"repro/internal/topology"
)

func main() {
	name := flag.String("machine", "rome-2s", "preset: rome-1s, rome-2s, rome-1s-nps4, small")
	policyName := flag.String("placement", "", "render a placement policy's predicted assignment: packed, ccx, numa or all")
	replicasSpec := flag.String("replicas", "", "replica counts to place, e.g. webui=3,image=2 (default: one per replicable service)")
	flag.Parse()

	machines := map[string]*topology.Machine{
		"rome-1s":      topology.Rome1S(),
		"rome-2s":      topology.Rome2S(),
		"rome-1s-nps4": topology.Rome1SNPS4(),
		"small":        topology.Small(),
	}
	m, ok := machines[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "topoviz: unknown machine %q\n", *name)
		os.Exit(2)
	}
	fmt.Print(m.Describe())
	fmt.Println("\nNUMA distances (SLIT):")
	for a := 0; a < m.NumNUMA(); a++ {
		for b := 0; b < m.NumNUMA(); b++ {
			fmt.Printf("%4d", m.NUMADistance(a, b))
		}
		fmt.Println()
	}

	if *policyName == "" {
		return
	}
	if err := renderPlacement(m, *policyName, *replicasSpec); err != nil {
		fmt.Fprintf(os.Stderr, "topoviz: %v\n", err)
		os.Exit(1)
	}
}

// renderPlacement prints the named policy's (or every policy's)
// predicted service → slot table and per-cell occupancy, then Σ caps per
// service with the ratio against packed.
func renderPlacement(m *topology.Machine, policyName, replicasSpec string) error {
	if policyName != "all" && !slices.Contains(placement.PolicyNames(), policyName) {
		return fmt.Errorf("unknown -placement %q (have %s, all)", policyName, strings.Join(placement.PolicyNames(), ", "))
	}
	replicas, err := parseReplicas(replicasSpec)
	if err != nil {
		return err
	}
	preds, err := placement.Predict(m, replicas)
	if err != nil {
		return err
	}
	var shown []placement.Prediction
	for _, p := range preds {
		if policyName == "all" || p.Policy == policyName {
			shown = append(shown, p)
		}
	}
	for _, p := range shown {
		fmt.Printf("\nplacement %s (slot=%d cores, cap/core=%d):\n", p.Policy, placement.SlotCores, placement.CapPerCore)
		fmt.Printf("  %-14s %-22s %s\n", "replica", "slot", "cap")
		seq := map[string]int{}
		for i, slot := range p.Slots {
			seq[slot.Service]++
			fmt.Printf("  %-14s %-22s %3d\n",
				fmt.Sprintf("%s/%d", slot.Service, seq[slot.Service]), slot.Label(), p.Caps[i])
		}
		fmt.Println("\ncell occupancy:")
		for _, line := range cellOccupancy(m, p.Slots) {
			fmt.Println("  " + line)
		}
	}

	fmt.Println("\nΣ admission caps per service (ratio vs packed):")
	row := "  policy  "
	for _, svc := range placement.BootOrder {
		row += fmt.Sprintf(" %-14s", svc)
	}
	fmt.Println(strings.TrimRight(row, " "))
	for _, p := range shown {
		row = fmt.Sprintf("  %-8s", p.Policy)
		for _, svc := range placement.BootOrder {
			row += fmt.Sprintf(" %-14s", fmt.Sprintf("%d (%.3f)", p.Sum[svc], p.VsPacked[svc]))
		}
		fmt.Println(strings.TrimRight(row, " "))
	}
	return nil
}

// cellOccupancy summarizes which services landed in each CCX.
func cellOccupancy(m *topology.Machine, slots []placement.Slot) []string {
	byCCX := make([][]string, m.NumCCXs())
	for _, slot := range slots {
		seen := map[int]bool{}
		slot.CPUs.ForEach(func(id int) {
			if m.ValidCPU(id) {
				seen[m.CPU(id).CCX] = true
			}
		})
		ccxs := make([]int, 0, len(seen))
		for c := range seen {
			ccxs = append(ccxs, c)
		}
		sort.Ints(ccxs)
		tag := slot.Service
		if len(ccxs) > 1 {
			tag += "*" // straddles cells
		}
		for _, c := range ccxs {
			byCCX[c] = append(byCCX[c], tag)
		}
	}
	out := make([]string, 0, len(byCCX))
	for c, names := range byCCX {
		sort.Strings(names)
		label := "(idle)"
		if len(names) > 0 {
			label = strings.Join(names, " ")
		}
		out = append(out, fmt.Sprintf("ccx %d [%s]: %s", c, m.CPUsOfCCX(c).String(), label))
	}
	return out
}

// parseReplicas parses "webui=3,image=2" into replica counts;
// placement.Predict checks the services and fills in one for the rest.
func parseReplicas(spec string) (map[string]int, error) {
	out := map[string]int{}
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		n, err := strconv.Atoi(val)
		if !ok || err != nil {
			return nil, fmt.Errorf("bad -replicas element %q, want service=count", part)
		}
		out[name] = n
	}
	return out, nil
}
