// Package spice implements the reference Newton–Raphson transient
// simulator the framework is benchmarked against (the role SPICE3f5 plays
// in the paper). It performs full MNA assembly with nonlinear Level-1
// devices, trapezoidal integration with a backward-Euler start, sparse LU
// factorization on every Newton iteration, DC operating-point solution
// with source stepping, and supports stamping dense reduced-order
// macromodels as subcircuits — which is how the paper demonstrates that
// non-passive variational macromodels make a general-purpose simulator
// diverge (§5.1).
package spice

import (
	"errors"
	"fmt"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/mat"
	"lcsim/internal/sparse"
)

// ErrNoConvergence reports Newton failure (possibly macromodel-induced
// divergence).
var ErrNoConvergence = errors.New("spice: newton iteration did not converge")

// The Newton controls every run shares.
const (
	maxNewton = 50   // per-timestep Newton limit; a DC solve gets 10×
	absTol    = 1e-6 // voltage tolerance, V
	relTol    = 1e-4 // relative tolerance
	vMax      = 1e3  // divergence threshold, V
	dvLimit   = 2.0  // per-iteration voltage-change damping, V
)

// Options configures a simulation run: the time axis, the variation
// sample, the device models and the stopping rule. The Newton controls
// are the package constants above.
type Options struct {
	DT    float64 // fixed timestep, s
	TStop float64 // end time, s (a cap when SettleNodes is set)

	// Adaptive enables local-truncation-error timestep control: DT is the
	// initial step, bounded by [DTMin, DTMax] (defaults DT/64 and 8·DT),
	// with per-node predictor error kept under LTETol volts (default 1e-3).
	Adaptive bool
	DTMin    float64
	DTMax    float64
	LTETol   float64

	W      map[string]float64 // variation-parameter sample for element values
	Models *device.ModelSet   // device model set (required when MOSFETs present)

	// SettleNodes, when set, ends a fixed-step run at the step at which
	// the settle rule (circuit.Settle) holds over these nodes, with every
	// independent source as an input and Models.VDD as the supply.
	// StageHarness sets it to its driver outputs and probe, so a golden
	// stage run spans the same window as the TETA stage it checks.
	SettleNodes []string
}

func (o *Options) setDefaults() error {
	if o.DT <= 0 || o.TStop <= 0 {
		return fmt.Errorf("spice: DT and TStop must be positive, got %g, %g", o.DT, o.TStop)
	}
	if len(o.SettleNodes) > 0 && (o.Adaptive || o.Models == nil) {
		return fmt.Errorf("spice: SettleNodes needs a fixed-step run and a model set")
	}
	if o.Adaptive {
		if o.DTMin <= 0 {
			o.DTMin = o.DT / 64
		}
		if o.DTMax <= 0 {
			o.DTMax = 8 * o.DT
		}
		if o.LTETol <= 0 {
			o.LTETol = 1e-3
		}
	}
	return nil
}

// Stats counts simulation work, the quantities the paper's speedup tables
// are built from.
type Stats struct {
	Steps            int
	NewtonIterations int
	LUFactorizations int
}

// Result holds a transient simulation outcome.
type Result struct {
	T      []float64
	V      map[string][]float64 // probed node waveforms
	Stats  Stats
	DCIter int
}

// Waveform returns the probed node waveform as a PWL.
func (r *Result) Waveform(node string) (*circuit.PWL, error) {
	v, ok := r.V[node]
	if !ok {
		return nil, fmt.Errorf("spice: node %q was not probed", node)
	}
	return circuit.NewPWL(r.T, v)
}

// Macromodel is a dense reduced-order admittance block Y(s) = Gr + s·Cr
// whose first len(Ports) indices attach to circuit nodes and whose
// remaining indices become extra MNA unknowns.
type Macromodel struct {
	Gr, Cr *mat.Dense
	Ports  []circuit.NodeID
}

// capInst is a linear capacitor flattened for integration (includes device
// capacitances).
type capInst struct {
	a, b int // MNA indices, -1 for ground
	c    float64
}

// mosInst is a MOSFET with resolved model and MNA terminal indices.
type mosInst struct {
	dev        circuit.MOSFET
	model      *device.Model
	d, g, s, b int
}

// Simulator is a configured transient engine over one netlist.
type Simulator struct {
	nl    *circuit.Netlist
	opts  Options
	nNode int
	nVsrc int
	nMac  int // extra macromodel unknowns
	dim   int

	caps   []capInst
	mos    []mosInst
	macros []*Macromodel
	macOff []int // first extra-unknown index per macromodel

	// static linear stamps (R + V-source rows), rebuilt only once
	static *sparse.Triplet

	stats Stats
}

// evalMOS linearizes one MOSFET instance at absolute terminal voltages.
func evalMOS(m mosInst, vd, vg, vs, vb float64) device.OpPoint {
	return device.EvalDevice(m.model, m.dev, vd, vg, vs, vb)
}

// NewSimulator validates and prepares a simulator.
func NewSimulator(nl *circuit.Netlist, opts Options) (*Simulator, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if len(nl.MOSFETs) > 0 && opts.Models == nil {
		return nil, fmt.Errorf("spice: netlist has MOSFETs but no model set given")
	}
	s := &Simulator{nl: nl, opts: opts, nNode: nl.NumNodes(), nVsrc: len(nl.VSources)}
	s.dim = s.nNode + s.nVsrc
	// Flatten linear capacitors.
	idx := func(n circuit.NodeID) int {
		if n == circuit.Gnd {
			return -1
		}
		return int(n)
	}
	for _, c := range nl.Capacitors {
		s.caps = append(s.caps, capInst{a: idx(c.A), b: idx(c.B), c: c.C.Eval(opts.W)})
	}
	// Resolve MOSFETs and add their constant capacitances.
	for _, m := range nl.MOSFETs {
		mod, err := opts.Models.Lookup(m.Model)
		if err != nil {
			return nil, fmt.Errorf("spice: device %s: %w", m.Name, err)
		}
		mi := mosInst{dev: m, model: mod, d: idx(m.D), g: idx(m.G), s: idx(m.S), b: idx(m.B)}
		s.mos = append(s.mos, mi)
		geom := device.Geometry{W: m.W, L: m.L, DL: m.DL, DVT: m.DVT}
		cg := mod.GateCap(geom) / 2
		cj := mod.JunctionCap(geom)
		s.caps = append(s.caps,
			capInst{a: mi.g, b: mi.s, c: cg},
			capInst{a: mi.g, b: mi.d, c: cg},
			capInst{a: mi.d, b: mi.b, c: cj},
			capInst{a: mi.s, b: mi.b, c: cj},
		)
	}
	return s, nil
}

// AddMacromodel attaches a reduced-order macromodel block. Must be called
// before Run.
func (s *Simulator) AddMacromodel(m *Macromodel) error {
	q := m.Gr.Rows()
	if m.Gr.Cols() != q || m.Cr.Rows() != q || m.Cr.Cols() != q {
		return fmt.Errorf("spice: macromodel matrices must be square and equal size")
	}
	if len(m.Ports) > q {
		return fmt.Errorf("spice: macromodel has %d ports but order %d", len(m.Ports), q)
	}
	for _, p := range m.Ports {
		if p == circuit.Gnd || int(p) >= s.nNode {
			return fmt.Errorf("spice: macromodel port %d invalid", p)
		}
	}
	s.macOff = append(s.macOff, s.dim)
	s.dim += q - len(m.Ports)
	s.nMac += q - len(m.Ports)
	s.macros = append(s.macros, m)
	return nil
}

// macIndex maps macromodel-local index k to the global MNA index.
func (s *Simulator) macIndex(mi, k int) int {
	m := s.macros[mi]
	if k < len(m.Ports) {
		return int(m.Ports[k])
	}
	return s.macOff[mi] + (k - len(m.Ports))
}

// buildStatic assembles the timestep-invariant stamps: resistors and the
// voltage-source incidence pattern, plus macromodel Gr blocks.
func (s *Simulator) buildStatic() error {
	tr := sparse.NewTriplet(s.dim)
	for _, r := range s.nl.Resistors {
		rv := r.R.Eval(s.opts.W)
		if rv <= 0 {
			return fmt.Errorf("spice: resistor %s evaluates to %g at sample", r.Name, rv)
		}
		stampG(tr, int(r.A), int(r.B), 1/rv)
	}
	for _, g := range s.nl.Conductors {
		gv := g.G.Eval(s.opts.W)
		if gv <= 0 {
			return fmt.Errorf("spice: conductor %s evaluates to %g at sample", g.Name, gv)
		}
		stampG(tr, int(g.A), int(g.B), gv)
	}
	for i, v := range s.nl.VSources {
		bi := s.nNode + i
		if v.A != circuit.Gnd {
			tr.Add(int(v.A), bi, 1)
			tr.Add(bi, int(v.A), 1)
		}
		if v.B != circuit.Gnd {
			tr.Add(int(v.B), bi, -1)
			tr.Add(bi, int(v.B), -1)
		}
	}
	for mi, m := range s.macros {
		q := m.Gr.Rows()
		for i := 0; i < q; i++ {
			gi := s.macIndex(mi, i)
			for j := 0; j < q; j++ {
				if v := m.Gr.At(i, j); v != 0 {
					tr.Add(gi, s.macIndex(mi, j), v)
				}
			}
		}
	}
	s.static = tr
	return nil
}

// stampG stamps a two-terminal conductance (indices may be -1 = ground).
func stampG(tr *sparse.Triplet, a, b int, g float64) {
	if a >= 0 {
		tr.Add(a, a, g)
	}
	if b >= 0 {
		tr.Add(b, b, g)
	}
	if a >= 0 && b >= 0 {
		tr.Add(a, b, -g)
		tr.Add(b, a, -g)
	}
}
