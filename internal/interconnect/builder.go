package interconnect

import (
	"fmt"

	"lcsim/internal/circuit"
)

// rcValues returns the (possibly variational) R, Cg, Cc element values for
// one segment of the given length.
func rcValues(tech WireTech, segLenM float64, variational bool) (r, cg, cc circuit.Value) {
	pul := SakuraiPUL(tech)
	r = circuit.V(pul.R * segLenM)
	cg = circuit.V(pul.Cg * segLenM)
	cc = circuit.V(pul.Cc * segLenM)
	if !variational {
		return r, cg, cc
	}
	for _, p := range WireParams {
		s := PULSensitivity(tech, p)
		if s.R != 0 {
			r = r.WithSens(p, s.R*segLenM)
		}
		if s.Cg != 0 {
			cg = cg.WithSens(p, s.Cg*segLenM)
		}
		if s.Cc != 0 {
			cc = cc.WithSens(p, s.Cc*segLenM)
		}
	}
	return r, cg, cc
}

// AddLine appends a single RC line (no coupling) to nl starting at node
// `in`. Nodes are named prefix+"_n<k>"; the far-end node name is returned.
// The line is divided into ceil(lengthUm·segPerUm) identical L-sections
// (series R, then C to ground).
func AddLine(nl *circuit.Netlist, tech WireTech, in, prefix string, lengthUm, segPerUm float64, variational bool) string {
	segs := int(lengthUm*segPerUm + 0.5)
	if segs < 1 {
		segs = 1
	}
	segLen := lengthUm * 1e-6 / float64(segs)
	r, cg, _ := rcValues(tech, segLen, variational)
	prev := in
	for k := 1; k <= segs; k++ {
		node := fmt.Sprintf("%s_n%d", prefix, k)
		nl.AddR(fmt.Sprintf("R%s_%d", prefix, k), prev, node, r)
		nl.AddC(fmt.Sprintf("C%s_%d", prefix, k), node, "0", cg)
		prev = node
	}
	return prev
}

// AddLineElements appends an RC line with exactly nElems linear elements
// (alternating R and C), the workload knob of the paper's Example 3
// ("number of linear elements between stages"). Returns the far-end node.
func AddLineElements(nl *circuit.Netlist, tech WireTech, in, prefix string, nElems int, lengthUm float64, variational bool) string {
	segs := nElems / 2
	if segs < 1 {
		segs = 1
	}
	segLen := lengthUm * 1e-6 / float64(segs)
	r, cg, _ := rcValues(tech, segLen, variational)
	prev := in
	for k := 1; k <= segs; k++ {
		node := fmt.Sprintf("%s_n%d", prefix, k)
		nl.AddR(fmt.Sprintf("R%s_%d", prefix, k), prev, node, r)
		nl.AddC(fmt.Sprintf("C%s_%d", prefix, k), node, "0", cg)
		prev = node
	}
	if nElems%2 != 0 {
		nl.AddC(fmt.Sprintf("C%s_x", prefix), prev, "0", cg)
	}
	return prev
}

// Bus is a bundle of coupled parallel lines built by BuildBus.
type Bus struct {
	Netlist  *circuit.Netlist
	In, Out  []string // near/far end node names, one per line
	Segments int
	Lines    int
}

// BuildBus constructs nLines identical coupled parallel RC lines of the
// given length, divided into one segment per micron by default (segPerUm
// <= 0). Adjacent lines couple through Sakurai coupling capacitors at each
// segment node. Near ends are "li_n0"; no ports are marked — callers mark
// the ports that match their driver/probe configuration.
func BuildBus(tech WireTech, nLines int, lengthUm, segPerUm float64, variational bool) *Bus {
	if segPerUm <= 0 {
		segPerUm = 1
	}
	if nLines < 1 {
		panic(fmt.Sprintf("interconnect: need at least one line, got %d", nLines))
	}
	segs := int(lengthUm*segPerUm + 0.5)
	if segs < 1 {
		segs = 1
	}
	segLen := lengthUm * 1e-6 / float64(segs)
	r, cg, cc := rcValues(tech, segLen, variational)

	nl := circuit.New()
	bus := &Bus{Netlist: nl, Segments: segs, Lines: nLines}
	node := func(line, seg int) string { return fmt.Sprintf("l%d_n%d", line, seg) }
	for i := 0; i < nLines; i++ {
		bus.In = append(bus.In, node(i, 0))
		for k := 1; k <= segs; k++ {
			nl.AddR(fmt.Sprintf("Rl%d_%d", i, k), node(i, k-1), node(i, k), r)
			nl.AddC(fmt.Sprintf("Cl%d_%d", i, k), node(i, k), "0", cg)
		}
		bus.Out = append(bus.Out, node(i, segs))
	}
	// Coupling between adjacent lines at every segment node.
	for i := 0; i+1 < nLines; i++ {
		for k := 1; k <= segs; k++ {
			nl.AddC(fmt.Sprintf("CC%d_%d_%d", i, i+1, k), node(i, k), node(i+1, k), cc)
		}
	}
	return bus
}
