// Package device provides nonlinear device models and a transistor-level
// standard-cell library: the SPICE Level-1 (Shichman–Hodges) MOSFET with
// analytic derivatives and channel-length-modulation, technology model
// sets for 0.18 µm and 0.6 µm nodes, and the ten logic cells used by the
// paper's ISCAS-89 experiments (§5.3).
//
// The paper's Example 3 explicitly uses "the analytical level-1 model from
// [10]" (SPICE3f5), so this model choice is a faithful reproduction, not a
// simplification. Gate capacitances use the constant (charge-conserving
// worst-case) approximation so the load network stays linear, which is
// what the linear-centric decomposition assumes.
package device

import (
	"fmt"
	"math"

	"lcsim/internal/circuit"
)

// Model holds SPICE Level-1 parameters for one device polarity. Voltage
// parameters follow NMOS sign conventions; PMOS devices are evaluated by
// reflection, so VT0 is positive for both polarities here.
type Model struct {
	Name   string
	Type   circuit.MOSFETType
	VT0    float64 // zero-bias threshold magnitude, V
	KP     float64 // transconductance µ0·Cox, A/V²
	Lambda float64 // channel-length modulation, 1/V
	Gamma  float64 // body-effect coefficient, √V
	Phi    float64 // surface potential, V
	LD     float64 // lateral diffusion, m

	Cox float64 // gate-oxide capacitance, F/m²
	CGO float64 // gate-drain/source overlap capacitance per width, F/m
	CJW float64 // junction capacitance per width, F/m
}

// Geometry is the per-instance drawn geometry plus statistical deviations:
// DL is additional channel-length reduction (positive shrinks Leff) and
// DVT an additive threshold-voltage shift, the two nonlinear variation
// sources of the paper's Example 3.
type Geometry struct {
	W, L    float64
	DL, DVT float64
}

// Leff returns the effective channel length.
func (m *Model) Leff(g Geometry) float64 {
	l := g.L - 2*m.LD - g.DL
	if l < 1e-9 {
		l = 1e-9
	}
	return l
}

// OpPoint is a linearized MOSFET operating point: drain current and the
// small-signal conductances of the Level-1 equations.
type OpPoint struct {
	ID  float64 // drain current (into drain, NMOS convention)
	Gm  float64 // dId/dVgs
	Gds float64 // dId/dVds
	Gmb float64 // dId/dVbs
}

// gmin is a tiny conductance added from drain to source to keep Newton
// matrices nonsingular in cutoff, as general-purpose simulators do.
const gmin = 1e-12

// Eval computes the Level-1 drain current and derivatives at terminal
// voltages measured with NMOS conventions (for PMOS, pass voltages and
// interpret the current through EvalDevice instead).
func (m *Model) Eval(vgs, vds, vbs float64, g Geometry) OpPoint {
	// Symmetry: if vds < 0, swap source and drain.
	if vds < 0 {
		op := m.Eval(vgs-vds, -vds, vbs-vds, g)
		// Id' = -Id; derivative mapping for the swap:
		// vgs_i = vgs - vds, vds_i = -vds, vbs_i = vbs - vds.
		return OpPoint{
			ID:  -op.ID,
			Gm:  op.Gm,
			Gds: op.Gm + op.Gds + op.Gmb,
			Gmb: op.Gmb,
		}
	}
	vth := m.VT0 + g.DVT
	dVthdVbs := 0.0
	if m.Gamma > 0 {
		arg := m.Phi - vbs
		if arg < 1e-3 {
			arg = 1e-3
		}
		sq := math.Sqrt(arg)
		vth += m.Gamma * (sq - math.Sqrt(m.Phi))
		dVthdVbs = -m.Gamma / (2 * sq)
	}
	beta := m.KP * g.W / m.Leff(g)
	vov := vgs - vth
	var op OpPoint
	switch {
	case vov <= 0: // cutoff
		op = OpPoint{}
	case vds < vov: // linear (triode)
		clm := 1 + m.Lambda*vds
		op.ID = beta * (vov*vds - 0.5*vds*vds) * clm
		op.Gm = beta * vds * clm
		op.Gds = beta*(vov-vds)*clm + beta*(vov*vds-0.5*vds*vds)*m.Lambda
		op.Gmb = -beta * vds * clm * dVthdVbs // dId/dVbs = gm·(−dVth/dVbs)
	default: // saturation
		clm := 1 + m.Lambda*vds
		op.ID = 0.5 * beta * vov * vov * clm
		op.Gm = beta * vov * clm
		op.Gds = 0.5 * beta * vov * vov * m.Lambda
		op.Gmb = -beta * vov * clm * dVthdVbs
	}
	op.ID += gmin * vds
	op.Gds += gmin
	return op
}

// EvalCache pre-resolves the per-(model, geometry) constants of the
// Level-1 current evaluation — the threshold with the sample's DVT folded
// in and the transconductance factor β = KP·W/Leff — so the per-timestep
// device sweep pays neither the Leff clamp and divide nor a model/geometry
// copy per call. Build one per device instance when a sample's deviations
// are fixed (Driver.resetState does). ID computes only the drain
// current, the quantity the Successive-Chords right-hand side consumes,
// and is bit-identical to EvalGeom's ID on the source model and geometry.
type EvalCache struct {
	vth0   float64 // VT0 + DVT
	beta   float64 // KP·W/Leff(g)
	lambda float64
	gamma  float64
	phi    float64
	sqPhi  float64 // √Phi
	pmos   bool
}

// NewEvalCache folds a geometry's deviations into the model constants.
func (m *Model) NewEvalCache(g Geometry) EvalCache {
	return EvalCache{
		vth0:   m.VT0 + g.DVT,
		beta:   m.KP * g.W / m.Leff(g),
		lambda: m.Lambda,
		gamma:  m.Gamma,
		phi:    m.Phi,
		sqPhi:  math.Sqrt(m.Phi),
		pmos:   m.Type == circuit.PMOS,
	}
}

// ID evaluates the drain current at absolute node voltages, handling the
// PMOS reflection internally.
func (c *EvalCache) ID(vd, vg, vs, vb float64) float64 {
	if c.pmos {
		return -c.id(vs-vg, vs-vd, vs-vb)
	}
	return c.id(vg-vs, vd-vs, vb-vs)
}

// id is the Level-1 drain current over the cached constants (NMOS
// conventions).
func (c *EvalCache) id(vgs, vds, vbs float64) float64 {
	if vds < 0 {
		return -c.id(vgs-vds, -vds, vbs-vds)
	}
	vth := c.vth0
	if c.gamma > 0 && vbs != 0 {
		arg := c.phi - vbs
		if arg < 1e-3 {
			arg = 1e-3
		}
		vth += c.gamma * (math.Sqrt(arg) - c.sqPhi)
	}
	vov := vgs - vth
	id := gmin * vds
	if vov > 0 {
		clm := 1 + c.lambda*vds
		if vds < vov {
			id += c.beta * (vov*vds - 0.5*vds*vds) * clm
		} else {
			id += 0.5 * c.beta * vov * vov * clm
		}
	}
	return id
}

// EvalDevice evaluates a netlist MOSFET instance at absolute node voltages
// vd, vg, vs, vb and returns the current flowing into the drain terminal
// plus derivatives with respect to (vg, vd, vs, vb) expressed as the
// standard (gm, gds, gmb) triple in device-local (source-referenced)
// coordinates. For PMOS the reflection is handled internally.
func EvalDevice(m *Model, dev circuit.MOSFET, vd, vg, vs, vb float64) OpPoint {
	return EvalGeom(m, Geometry{W: dev.W, L: dev.L, DL: dev.DL, DVT: dev.DVT}, vd, vg, vs, vb)
}

// EvalGeom is EvalDevice with the geometry pre-resolved. Per-sample loops
// that have already folded their DL/DVT deviations into a Geometry avoid
// copying the full MOSFET instance (name, nodes) on every evaluation.
func EvalGeom(m *Model, g Geometry, vd, vg, vs, vb float64) OpPoint {
	if m.Type == circuit.PMOS {
		op := m.Eval(vs-vg, vs-vd, vs-vb, g)
		// PMOS: current into drain = -Id(reflected).
		return OpPoint{ID: -op.ID, Gm: op.Gm, Gds: op.Gds, Gmb: op.Gmb}
	}
	return m.Eval(vg-vs, vd-vs, vb-vs, g)
}

// GateCap returns the (constant) gate capacitance of an instance:
// channel charge W·Leff·Cox plus two overlaps.
func (m *Model) GateCap(g Geometry) float64 {
	return g.W*m.Leff(g)*m.Cox + 2*g.W*m.CGO
}

// JunctionCap returns the (constant) drain/source junction capacitance.
func (m *Model) JunctionCap(g Geometry) float64 {
	return g.W * m.CJW
}

// ModelSet bundles the NMOS/PMOS models and operating voltage of one
// technology.
type ModelSet struct {
	Name   string
	NMOS   *Model
	PMOS   *Model
	VDD    float64
	MinW   float64 // minimum transistor width
	MinL   float64 // drawn channel length
	TolDL  float64 // 3σ channel-length reduction, m
	TolDVT float64 // 3σ threshold shift, V
}

// Lookup resolves a netlist model name to a device model.
func (s *ModelSet) Lookup(name string) (*Model, error) {
	switch {
	case name == "" || name[0] == 'N' || name[0] == 'n':
		return s.NMOS, nil
	case name[0] == 'P' || name[0] == 'p':
		return s.PMOS, nil
	}
	return nil, fmt.Errorf("device: unknown model %q in set %s", name, s.Name)
}

// Tech180 is a representative 0.18 µm model set. Tolerances follow the
// paper's Example 3: std(DL) and std(VT) are specified in normalized
// units there; the physical 3σ values here correspond to those classes.
var Tech180 = &ModelSet{
	Name: "0.18um",
	NMOS: &Model{
		Name: "NMOS018", Type: circuit.NMOS,
		VT0: 0.45, KP: 300e-6, Lambda: 0.06, Gamma: 0.4, Phi: 0.8,
		LD: 0.01e-6, Cox: 8.5e-3, CGO: 3.5e-10, CJW: 8e-10,
	},
	PMOS: &Model{
		Name: "PMOS018", Type: circuit.PMOS,
		VT0: 0.45, KP: 80e-6, Lambda: 0.08, Gamma: 0.4, Phi: 0.8,
		LD: 0.01e-6, Cox: 8.5e-3, CGO: 3.5e-10, CJW: 8e-10,
	},
	VDD:    1.8,
	MinW:   0.42e-6,
	MinL:   0.18e-6,
	TolDL:  0.018e-6, // 10% of L at 3σ
	TolDVT: 0.045,    // 10% of VT0 at 3σ
}

// Tech600 is a representative 0.6 µm model set (Example 1's inverter).
var Tech600 = &ModelSet{
	Name: "0.6um",
	NMOS: &Model{
		Name: "NMOS06", Type: circuit.NMOS,
		VT0: 0.7, KP: 120e-6, Lambda: 0.02, Gamma: 0.5, Phi: 0.8,
		LD: 0.05e-6, Cox: 2.7e-3, CGO: 3.0e-10, CJW: 1.2e-9,
	},
	PMOS: &Model{
		Name: "PMOS06", Type: circuit.PMOS,
		VT0: 0.8, KP: 40e-6, Lambda: 0.03, Gamma: 0.5, Phi: 0.8,
		LD: 0.05e-6, Cox: 2.7e-3, CGO: 3.0e-10, CJW: 1.2e-9,
	},
	VDD:    3.3,
	MinW:   1.2e-6,
	MinL:   0.6e-6,
	TolDL:  0.06e-6,
	TolDVT: 0.07,
}
