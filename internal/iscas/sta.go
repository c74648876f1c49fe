package iscas

import (
	"fmt"
	"sort"
)

// PathGate is one gate on an extracted timing path plus the input pin the
// propagating signal arrives on.
type PathGate struct {
	Gate      Gate
	SignalPin int
}

// DuplicateDriverError reports a net with more than one driver: two gate
// outputs, a gate output colliding with a primary input or a DFF Q pin,
// or duplicated primary inputs / Q pins. Such a netlist has no
// well-defined timing graph, so the analyses reject it instead of
// silently picking one driver.
type DuplicateDriverError struct {
	Net    string
	First  string // description of the driver seen first
	Second string // description of the colliding driver
}

func (e *DuplicateDriverError) Error() string {
	return fmt.Sprintf("iscas: net %s has two drivers (%s and %s)", e.Net, e.First, e.Second)
}

// Drivers maps every gate-driven net to the index of its driving gate,
// rejecting duplicate drivers with a *DuplicateDriverError. A collision
// between a gate output and a source net (primary input or DFF Q pin) —
// or between two source nets — is a duplicate too: the timing graph
// treats sources as zero-arrival drivers of their nets.
func (c *Circuit) Drivers() (map[string]int, error) {
	// owner maps each claimed net to its claimant (see claimant); the
	// descriptions are built only for an error.
	owner := make(map[string]int, len(c.PIs)+len(c.DFFs)+len(c.Gates))
	claim := func(net string, who int) error {
		if prev, dup := owner[net]; dup {
			return &DuplicateDriverError{Net: net, First: c.claimant(prev), Second: c.claimant(who)}
		}
		owner[net] = who
		return nil
	}
	for k, pi := range c.PIs {
		if err := claim(pi, -1-k); err != nil {
			return nil, err
		}
	}
	for k, d := range c.DFFs {
		if err := claim(d.Q, -1-len(c.PIs)-k); err != nil {
			return nil, err
		}
	}
	driver := make(map[string]int, len(c.Gates))
	for i, g := range c.Gates {
		if err := claim(g.Output, i); err != nil {
			return nil, err
		}
		driver[g.Output] = i
	}
	return driver, nil
}

// claimant describes a Drivers claim: gate who when who >= 0, else
// source claim k = -1-who, which is primary input k or DFF k-len(PIs)'s
// Q pin.
func (c *Circuit) claimant(who int) string {
	k := -1 - who
	switch {
	case who >= 0:
		return "gate " + c.Gates[who].Name
	case k < len(c.PIs):
		return "primary input " + c.PIs[k]
	default:
		return "DFF " + c.DFFs[k-len(c.PIs)].Name + " Q pin"
	}
}

// SourceNets returns the zero-arrival nets of the latch-to-latch timing
// graph: primary inputs and DFF Q pins.
func (c *Circuit) SourceNets() map[string]bool {
	src := map[string]bool{}
	for _, pi := range c.PIs {
		src[pi] = true
	}
	for _, d := range c.DFFs {
		src[d.Q] = true
	}
	return src
}

// SinkNets returns the observable endpoints of the timing graph: the
// union of primary outputs and DFF D pins. (Earlier versions dropped
// primary outputs whenever the circuit was sequential, silently ignoring
// any PO deeper than every D pin.)
func (c *Circuit) SinkNets() map[string]bool {
	sink := map[string]bool{}
	for _, po := range c.POs {
		sink[po] = true
	}
	for _, d := range c.DFFs {
		sink[d.D] = true
	}
	return sink
}

// TopoOrder returns the gate indices in a topological order of the
// combinational logic (Kahn's algorithm, zero-indegree ties by gate
// name) together with the driver map it was built from (see Drivers),
// so callers need not build that map again. It shares Drivers'
// duplicate detection and reports undriven gate inputs and
// combinational cycles as errors.
func (c *Circuit) TopoOrder() ([]int, map[string]int, error) {
	driver, err := c.Drivers()
	if err != nil {
		return nil, nil, err
	}
	isSource := c.SourceNets()
	indeg := make([]int, len(c.Gates))
	fanout := make([][]int, len(c.Gates))
	for i, g := range c.Gates {
		for _, in := range g.Inputs {
			if isSource[in] {
				continue
			}
			di, ok := driver[in]
			if !ok {
				return nil, nil, fmt.Errorf("iscas: gate %s input %s is undriven", g.Name, in)
			}
			indeg[i]++
			fanout[di] = append(fanout[di], i)
		}
	}
	queue := []int{}
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	sort.Slice(queue, func(a, b int) bool { return c.Gates[queue[a]].Name < c.Gates[queue[b]].Name })
	var topo []int
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		topo = append(topo, i)
		for _, j := range fanout[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(topo) != len(c.Gates) {
		return nil, nil, fmt.Errorf("iscas: combinational cycle detected (%d of %d gates ordered)", len(topo), len(c.Gates))
	}
	return topo, driver, nil
}

// predLabel totally orders critical-predecessor candidates for the
// deterministic tie-break (smaller label wins an arrival tie): gates
// sort among themselves by gate name, DFF Q pins before primary inputs
// (a zero-arrival tie between sources picks the latch, keeping extracted
// paths latch-to-latch as the paper's Example 3 expects), and sources of
// the same kind by net name. The prefixes make the namespaces
// collision-free; gates never tie with sources on arrival (a gate output
// arrives at ≥ 1, a source at 0), so their relative order is moot.
func (c *Circuit) predLabel(src int, net string, isQ map[string]bool) string {
	if src >= 0 {
		return "g:" + c.Gates[src].Name
	}
	if isQ[net] {
		return "q:" + net
	}
	return "s:" + net
}

// LongestPath runs a unit-delay static timing analysis over the
// combinational logic (latch-to-latch: sources are primary inputs and DFF
// Q pins; sinks are the union of primary outputs and DFF D pins) and
// returns the critical path in topological order. All ties — critical
// predecessor and critical sink — break deterministically by name, so
// the extracted path is invariant under gate reordering.
func (c *Circuit) LongestPath() ([]PathGate, error) {
	topo, driver, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	isSource := c.SourceNets()
	isQ := map[string]bool{}
	for _, d := range c.DFFs {
		isQ[d.Q] = true
	}
	// Arrival times at gate outputs; predecessor bookkeeping.
	arr := make([]int, len(c.Gates))
	prevGate := make([]int, len(c.Gates)) // critical predecessor gate, -1 = source
	prevPin := make([]int, len(c.Gates))
	for _, i := range topo {
		g := c.Gates[i]
		assigned := false
		best := -1
		bestPin := 0
		bestArr := 0
		bestLabel := ""
		for pin, in := range g.Inputs {
			a := 0
			src := -1
			if !isSource[in] {
				src = driver[in]
				a = arr[src]
			}
			label := c.predLabel(src, in, isQ)
			if !assigned || a > bestArr || (a == bestArr && label < bestLabel) {
				assigned = true
				best = src
				bestPin = pin
				bestArr = a
				bestLabel = label
			}
		}
		arr[i] = bestArr + 1
		prevGate[i] = best
		prevPin[i] = bestPin
	}
	// Sink selection: the deepest gate driving a primary output or a DFF
	// D pin, ties by gate name.
	isSink := c.SinkNets()
	end := -1
	for i, g := range c.Gates {
		if !isSink[g.Output] {
			continue
		}
		if end == -1 || arr[i] > arr[end] || (arr[i] == arr[end] && g.Name < c.Gates[end].Name) {
			end = i
		}
	}
	if end == -1 {
		// Fall back: deepest gate anywhere (no gate drives a sink net),
		// with the same deterministic name tie-break.
		for i, g := range c.Gates {
			if end == -1 || arr[i] > arr[end] || (arr[i] == arr[end] && g.Name < c.Gates[end].Name) {
				end = i
			}
		}
	}
	// Trace back.
	var rev []PathGate
	for i := end; i >= 0; {
		rev = append(rev, PathGate{Gate: c.Gates[i], SignalPin: prevPin[i]})
		i = prevGate[i]
	}
	path := make([]PathGate, len(rev))
	for i := range rev {
		path[len(rev)-1-i] = rev[i]
	}
	return path, nil
}

// PathCells converts an extracted path into device-cell names suitable
// for core.BuildChain. The circuit must be tech-mapped first.
func PathCells(path []PathGate) []string {
	out := make([]string, len(path))
	for i, pg := range path {
		out[i] = pg.Gate.Type
	}
	return out
}
