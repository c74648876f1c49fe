// Package circuit provides the netlist and MNA (modified nodal analysis)
// substrate: linear elements whose values are affine in global variation
// parameters, nonlinear MOSFETs, independent sources, port designation for
// model order reduction, sparse/dense matrix assembly, and a SPICE-like
// netlist parser.
package circuit

import "sort"

// NodeID identifies a circuit node. Ground is the constant Gnd (-1);
// non-ground nodes are 0..NumNodes()-1.
type NodeID int

// Gnd is the ground (reference) node.
const Gnd NodeID = -1

// Resistor is a two-terminal linear resistor with a (possibly variational)
// resistance in ohms.
type Resistor struct {
	Name string
	A, B NodeID
	R    Value
}

// Conductor is a two-terminal linear element specified directly by its
// (possibly variational) conductance in siemens. This is the element the
// paper's variational MNA form (eq. 3) assumes: G(w) affine in the global
// parameters, so first-order stamping is exact.
type Conductor struct {
	Name string
	A, B NodeID
	G    Value
}

// Capacitor is a two-terminal linear capacitor with a (possibly
// variational) capacitance in farads. Coupling capacitors between signal
// nets are plain Capacitors between two non-ground nodes.
type Capacitor struct {
	Name string
	A, B NodeID
	C    Value
}

// ISource is an independent current source driving current from A to B
// through the source (conventional SPICE direction: positive current flows
// A -> B inside the source, i.e. out of node B).
type ISource struct {
	Name string
	A, B NodeID
	W    Waveform
}

// VSource is an independent voltage source; V(A) - V(B) = W(t).
type VSource struct {
	Name string
	A, B NodeID
	W    Waveform
}

// MOSFETType distinguishes NMOS from PMOS.
type MOSFETType int

// MOSFET device polarities.
const (
	NMOS MOSFETType = iota
	PMOS
)

// String names the device polarity.
func (t MOSFETType) String() string {
	if t == PMOS {
		return "PMOS"
	}
	return "NMOS"
}

// MOSFET is a four-terminal transistor instance. Model parameters are
// resolved by name from a device model library at simulation time; W and L
// are the drawn geometry in meters. DL and DVT are per-instance additive
// deviations of channel-length reduction and threshold voltage used for
// statistical analysis (paper §5.3).
type MOSFET struct {
	Name       string
	D, G, S, B NodeID
	Type       MOSFETType
	Model      string
	W, L       float64
	DL, DVT    float64
}

// Netlist is a flat circuit description.
type Netlist struct {
	nodeIDs   map[string]NodeID
	nodeNames []string

	Resistors  []Resistor
	Conductors []Conductor
	Capacitors []Capacitor
	ISources   []ISource
	VSources   []VSource
	MOSFETs    []MOSFET

	ports []NodeID
}

// New creates an empty netlist.
func New() *Netlist {
	return &Netlist{nodeIDs: map[string]NodeID{"0": Gnd, "gnd": Gnd, "GND": Gnd}}
}

// Node returns the NodeID for a name, creating the node if necessary.
// "0", "gnd" and "GND" are ground.
func (n *Netlist) Node(name string) NodeID {
	if id, ok := n.nodeIDs[name]; ok {
		return id
	}
	id := NodeID(len(n.nodeNames))
	n.nodeIDs[name] = id
	n.nodeNames = append(n.nodeNames, name)
	return id
}

// NumNodes returns the number of non-ground nodes.
func (n *Netlist) NumNodes() int { return len(n.nodeNames) }

// AddR adds a resistor between named nodes.
func (n *Netlist) AddR(name, a, b string, r Value) *Netlist {
	n.Resistors = append(n.Resistors, Resistor{Name: name, A: n.Node(a), B: n.Node(b), R: r})
	return n
}

// AddG adds a conductance-specified element between named nodes.
func (n *Netlist) AddG(name, a, b string, g Value) *Netlist {
	n.Conductors = append(n.Conductors, Conductor{Name: name, A: n.Node(a), B: n.Node(b), G: g})
	return n
}

// AddC adds a capacitor between named nodes.
func (n *Netlist) AddC(name, a, b string, c Value) *Netlist {
	n.Capacitors = append(n.Capacitors, Capacitor{Name: name, A: n.Node(a), B: n.Node(b), C: c})
	return n
}

// AddI adds a current source.
func (n *Netlist) AddI(name, a, b string, w Waveform) *Netlist {
	n.ISources = append(n.ISources, ISource{Name: name, A: n.Node(a), B: n.Node(b), W: w})
	return n
}

// AddV adds a voltage source.
func (n *Netlist) AddV(name, a, b string, w Waveform) *Netlist {
	n.VSources = append(n.VSources, VSource{Name: name, A: n.Node(a), B: n.Node(b), W: w})
	return n
}

// AddMOSFET adds a transistor.
func (n *Netlist) AddMOSFET(m MOSFET, d, g, s, b string) *Netlist {
	m.D, m.G, m.S, m.B = n.Node(d), n.Node(g), n.Node(s), n.Node(b)
	n.MOSFETs = append(n.MOSFETs, m)
	return n
}

// MarkPort designates a node as a port of the linear sub-network, in call
// order. Ports must be non-ground.
func (n *Netlist) MarkPort(name string) *Netlist {
	id := n.Node(name)
	if id == Gnd {
		panic("circuit: ground cannot be a port")
	}
	for _, p := range n.ports {
		if p == id {
			return n
		}
	}
	n.ports = append(n.ports, id)
	return n
}

// Ports returns the designated port nodes in declaration order.
func (n *Netlist) Ports() []NodeID {
	out := make([]NodeID, len(n.ports))
	copy(out, n.ports)
	return out
}

// Params returns the sorted union of variation-parameter names used by any
// linear element value.
func (n *Netlist) Params() []string {
	set := map[string]bool{}
	for _, r := range n.Resistors {
		for _, p := range r.R.Params() {
			set[p] = true
		}
	}
	for _, g := range n.Conductors {
		for _, p := range g.G.Params() {
			set[p] = true
		}
	}
	for _, c := range n.Capacitors {
		for _, p := range c.C.Params() {
			set[p] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes the netlist for reporting.
type Stats struct {
	Nodes, Resistors, Conductors, Capacitors, MOSFETs, VSources, ISources, Ports int
	LinearElements                                                               int
}

// Stats returns summary counts.
func (n *Netlist) Stats() Stats {
	return Stats{
		Nodes:          n.NumNodes(),
		Resistors:      len(n.Resistors),
		Conductors:     len(n.Conductors),
		Capacitors:     len(n.Capacitors),
		MOSFETs:        len(n.MOSFETs),
		VSources:       len(n.VSources),
		ISources:       len(n.ISources),
		Ports:          len(n.ports),
		LinearElements: len(n.Resistors) + len(n.Conductors) + len(n.Capacitors),
	}
}
