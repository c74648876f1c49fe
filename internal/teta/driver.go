// Package teta implements the linear-centric transistor-level waveform
// evaluation engine of the paper (§3.2–3.3): nonlinear drivers are
// linearized with Successive Chords (fixed chord conductances chosen once,
// before analysis), each driver is collapsed to a Norton equivalent whose
// output conductance G_out is folded into the linear load *before*
// reduction, and the stabilized pole/residue load is evaluated by
// recursive convolution. No matrix is refactored during timestepping —
// the source of the framework's speedup over Newton-based simulation —
// and, crucially, the load macromodel only needs to be stable, not
// passive.
package teta

import (
	"fmt"
	"math"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/mat"
)

// ChordPolicy selects the fixed chord conductance for a MOSFET.
type ChordPolicy int

// Chord policies. ChordMax uses the device's maximum small-signal
// conductance (guaranteed contraction, more iterations); ChordHalf uses
// half of it (faster when it converges); ChordSecant uses the saturation
// current secant I_dsat/VDD.
const (
	ChordMax ChordPolicy = iota
	ChordHalf
	ChordSecant
)

// String names the chord policy.
func (p ChordPolicy) String() string {
	switch p {
	case ChordHalf:
		return "half"
	case ChordSecant:
		return "secant"
	default:
		return "max"
	}
}

// chordConductance computes the fixed drain-source chord for a device at
// nominal model parameters (the paper's point: chords never change with
// the statistical sample).
func chordConductance(m *device.Model, dev circuit.MOSFET, vdd float64, policy ChordPolicy) float64 {
	g := device.Geometry{W: dev.W, L: dev.L} // nominal: no DL/DVT
	beta := m.KP * g.W / m.Leff(g)
	gmax := beta * (vdd - m.VT0)
	if gmax <= 0 {
		gmax = beta * vdd * 0.1
	}
	switch policy {
	case ChordHalf:
		return gmax / 2
	case ChordSecant:
		// I_dsat(vgs=vdd) / vdd.
		idsat := 0.5 * beta * (vdd - m.VT0) * (vdd - m.VT0)
		return idsat / vdd
	default:
		return gmax
	}
}

// A driver is compiled once, when it is built: every transistor and
// capacitor terminal is resolved to a slot of the driver's voltage vector
// (see newVoltages), which holds the unknowns (internal nodes, then the
// output), then the inputs, then ground and the supply rail at their fixed
// values. A slot below nUnk is an unknown; any other is fixed.

// drvDev is one transistor inside a driver.
type drvDev struct {
	dev        circuit.MOSFET
	model      *device.Model
	d, g, s, b int // voltage-vector slots of the terminals
	chord      float64
}

// drvCap is one (constant) device capacitance inside the driver, with its
// backward-Euler companion conductance C/h.
type drvCap struct {
	a, b int // voltage-vector slots of the terminals
	geq  float64
}

// chordSystem is a prefactored chord matrix partitioned at the output:
// the Schur-complement Norton output conductance and the pieces needed
// for per-iteration Norton-current extraction and internal recovery.
type chordSystem struct {
	gOut     float64
	aii      *mat.LU   // internal block factorization (nil when no internals)
	aio, aoi []float64 // internal-to-output column, output-to-internal row
}

// chordDiag is the conductance every chord matrix carries on its diagonal
// to stay nonsingular with all devices off.
const chordDiag = 1e-12

// Driver is a Successive-Chords Norton model of one logic stage driver.
type Driver struct {
	Name string
	Cell *device.Cell
	Port int // load port index the output drives

	devs   []drvDev
	caps   []drvCap
	nUnk   int // internal unknowns + output (output is last)
	outIdx int

	nIn    int
	vddVal float64

	// tr is the transient system (chords + C/h companions; G_out depends
	// on h), dc the DC system (chords only). Both are prefactored.
	tr, dc chordSystem
}

// driverState is the per-run mutable state of a driver, kept outside the
// Driver so one characterized Stage can run many samples concurrently.
// The committed voltages live in the run's voltage vector.
type driverState struct {
	dPrev []float64 // per-capacitor v(a)−v(b) at the last committed step

	// geoms holds each device's geometry with the sample's DL/DVT already
	// folded in, and evals the corresponding Level-1 evaluation caches the
	// inner rhs loop consumes.
	geoms []device.Geometry
	evals []device.EvalCache
}

// newState allocates run state for one statistical sample (paper §5.3's
// DL and VT deviations). Chord systems are NOT re-derived — the
// framework's key efficiency property.
func (d *Driver) newState(dl, dvt float64) *driverState {
	st := &driverState{
		dPrev: make([]float64, len(d.caps)),
		geoms: make([]device.Geometry, len(d.devs)),
		evals: make([]device.EvalCache, len(d.devs)),
	}
	d.resetState(st, dl, dvt)
	return st
}

// resetState rewinds a state for a new sample without reallocating:
// capacitor histories are cleared and the device geometries are
// re-resolved with the sample's deviations.
func (d *Driver) resetState(st *driverState, dl, dvt float64) {
	for i := range st.dPrev {
		st.dPrev[i] = 0
	}
	for i := range d.devs {
		dev := &d.devs[i]
		st.geoms[i] = device.Geometry{
			W:   dev.dev.W,
			L:   dev.dev.L,
			DL:  dev.dev.DL + dl,
			DVT: dev.dev.DVT + dvt,
		}
		st.evals[i] = dev.model.NewEvalCache(st.geoms[i])
	}
}

// newVoltages allocates the driver's voltage vector: nUnk unknowns, nIn
// inputs, then ground and the rail, which keep their values for good.
func (d *Driver) newVoltages() []float64 {
	v := make([]float64, d.nUnk+d.nIn+2)
	v[len(v)-1] = d.vddVal
	return v
}

// DriverSpec describes a driver to attach to a stage.
type DriverSpec struct {
	Name  string
	Cell  *device.Cell
	Drive float64
	Port  int // index of the load port the output connects to
}

// newDriver expands the cell, compiles it against its voltage vector and
// prepares the chord systems. h is the simulation timestep (G_out depends
// on it, as the paper notes).
func newDriver(spec DriverSpec, tech *device.ModelSet, policy ChordPolicy, h float64) (*Driver, error) {
	nl := circuit.New()
	inNames := make([]string, spec.Cell.NIn)
	for i := range inNames {
		inNames[i] = fmt.Sprintf("in%d", i)
	}
	if err := spec.Cell.Instantiate(nl, "d", inNames, "out", device.BuildOpts{
		Tech: tech, Drive: spec.Drive,
	}); err != nil {
		return nil, err
	}
	d := &Driver{
		Name: spec.Name, Cell: spec.Cell, Port: spec.Port,
		nIn: spec.Cell.NIn, vddVal: tech.VDD,
	}
	// Unknowns are every node except gnd, vdd and the inputs, numbered in
	// order of first appearance (drain, gate, source, bulk of each device)
	// with the output first; the output then swaps places with the last
	// unknown so the Schur elimination keeps the internals together.
	inputIdx := map[circuit.NodeID]int{}
	for i, n := range inNames {
		inputIdx[nl.Node(n)] = i
	}
	vddID := nl.Node("vdd")
	unkIdx := map[circuit.NodeID]int{nl.Node("out"): 0}
	for _, m := range nl.MOSFETs {
		for _, id := range [4]circuit.NodeID{m.D, m.G, m.S, m.B} {
			_, in := inputIdx[id]
			if _, ok := unkIdx[id]; !ok && !in && id != circuit.Gnd && id != vddID {
				unkIdx[id] = len(unkIdx)
			}
		}
	}
	d.nUnk = len(unkIdx)
	d.outIdx = d.nUnk - 1
	slot := func(id circuit.NodeID) int {
		switch {
		case id == circuit.Gnd:
			return d.nUnk + d.nIn
		case id == vddID:
			return d.nUnk + d.nIn + 1
		}
		if k, ok := inputIdx[id]; ok {
			return d.nUnk + k
		}
		switch k := unkIdx[id]; k {
		case 0:
			return d.outIdx
		case d.outIdx:
			return 0
		default:
			return k
		}
	}
	for _, m := range nl.MOSFETs {
		mod, err := tech.Lookup(m.Model)
		if err != nil {
			return nil, err
		}
		dd := drvDev{
			dev: m, model: mod,
			d: slot(m.D), g: slot(m.G), s: slot(m.S), b: slot(m.B),
			chord: chordConductance(mod, m, tech.VDD, policy),
		}
		d.devs = append(d.devs, dd)
		geom := device.Geometry{W: m.W, L: m.L}
		cg := mod.GateCap(geom) / 2
		cj := mod.JunctionCap(geom)
		d.caps = append(d.caps,
			drvCap{a: dd.g, b: dd.s, geq: cg / h},
			drvCap{a: dd.g, b: dd.d, geq: cg / h},
			drvCap{a: dd.d, b: dd.b, geq: cj / h},
			drvCap{a: dd.s, b: dd.b, geq: cj / h},
		)
	}
	if err := d.buildSystems(); err != nil {
		return nil, err
	}
	return d, nil
}

// buildSystems assembles and factors the fixed chord matrices (transient
// with C/h companions, and DC with chords only).
func (d *Driver) buildSystems() error {
	n := d.nUnk
	aTr := mat.NewDense(n, n)
	aDC := mat.NewDense(n, n)
	stamp := func(a *mat.Dense, t1, t2 int, g float64) {
		if t1 < n {
			a.Add(t1, t1, g)
		}
		if t2 < n {
			a.Add(t2, t2, g)
		}
		if t1 < n && t2 < n {
			a.Add(t1, t2, -g)
			a.Add(t2, t1, -g)
		}
	}
	for _, dev := range d.devs {
		stamp(aTr, dev.d, dev.s, dev.chord)
		stamp(aDC, dev.d, dev.s, dev.chord)
	}
	for _, c := range d.caps {
		stamp(aTr, c.a, c.b, c.geq)
	}
	for i := 0; i < n; i++ {
		aTr.Add(i, i, chordDiag)
		aDC.Add(i, i, chordDiag)
	}
	var err error
	if d.tr, err = schurAtOutput(aTr); err != nil {
		return fmt.Errorf("teta: driver %s transient system: %w", d.Name, err)
	}
	if d.dc, err = schurAtOutput(aDC); err != nil {
		return fmt.Errorf("teta: driver %s DC system: %w", d.Name, err)
	}
	return nil
}

// schurAtOutput partitions A, whose last unknown is the output, and
// factors its internal block.
func schurAtOutput(a *mat.Dense) (chordSystem, error) {
	out := a.Rows() - 1
	aoo := a.At(out, out)
	if out == 0 {
		return chordSystem{gOut: aoo}, nil
	}
	inner := mat.NewDense(out, out)
	sys := chordSystem{aio: make([]float64, out), aoi: make([]float64, out)}
	for i := 0; i < out; i++ {
		for j := 0; j < out; j++ {
			inner.Set(i, j, a.At(i, j))
		}
		sys.aio[i] = a.At(i, out)
		sys.aoi[i] = a.At(out, i)
	}
	var err error
	if sys.aii, err = mat.FactorLU(inner); err != nil {
		return chordSystem{}, err
	}
	sys.gOut = aoo - mat.Dot(sys.aoi, sys.aii.Solve(sys.aio))
	return sys, nil
}

// GOut returns the chord Norton output conductance folded into the load.
func (d *Driver) GOut() float64 { return d.tr.gOut }

// rhsInto evaluates every device at the voltage vector v and accumulates
// the chord Norton right-hand side into b (length nUnk), which is zeroed
// first. The DC right-hand side leaves out the capacitor companions.
func (d *Driver) rhsInto(b, v []float64, dc bool, st *driverState) {
	n := d.nUnk
	for i := range b {
		b[i] = 0
	}
	for devi := range d.devs {
		dev := &d.devs[devi]
		vd, vs := v[dev.d], v[dev.s]
		id := st.evals[devi].ID(vd, v[dev.g], vs, v[dev.b])
		// Chord model: ID ≈ g_c(vd−vs) + (ID* − g_c·vds*); the constant
		// part moves to the RHS. Fixed-terminal chord contributions also
		// land on the RHS.
		iNort := dev.chord*(vd-vs) - id
		if dev.d < n {
			b[dev.d] += iNort
			if dev.s >= n {
				b[dev.d] += dev.chord * vs
			}
		}
		if dev.s < n {
			b[dev.s] -= iNort
			if dev.d >= n {
				b[dev.s] += dev.chord * vd
			}
		}
	}
	if dc {
		return
	}
	// Capacitor BE companions: i = (C/h)[(va−vb) − dPrev].
	for ci := range d.caps {
		c := &d.caps[ci]
		hist := c.geq * st.dPrev[ci]
		if c.a < n {
			b[c.a] += hist
			if c.b >= n {
				b[c.a] += c.geq * v[c.b]
			}
		}
		if c.b < n {
			b[c.b] -= hist
			if c.a >= n {
				b[c.b] += c.geq * v[c.a]
			}
		}
	}
}

// nortonS computes the Norton source current I_N = b_o − Aoi·Aii⁻¹·b_i
// of chord system sys for the right-hand side b, using xs (length
// outIdx) as the solve scratch.
func (d *Driver) nortonS(b, xs []float64, sys *chordSystem) float64 {
	bo := b[d.outIdx]
	if d.nUnk == 1 {
		return bo
	}
	sys.aii.SolveInto(xs, b[:d.outIdx])
	return bo - mat.Dot(sys.aoi, xs)
}

// internalsInto recovers the internal node voltages of chord system sys
// for output voltage vout into dst (length outIdx; may be the voltage
// vector's internal prefix), using bs (length outIdx) as the
// right-hand-side scratch.
func (d *Driver) internalsInto(dst, bs, b []float64, vout float64, sys *chordSystem) {
	if d.nUnk == 1 {
		return
	}
	copy(bs, b[:d.outIdx])
	for i := range bs {
		bs[i] -= sys.aio[i] * vout
	}
	sys.aii.SolveInto(dst, bs)
}

// dcSettleTol and dcSettleMax bound the DC settle of a driver's internal
// nodes (settleInternals): it has converged once a chord update moves no
// node by more than dcSettleTol volts, and gives up after dcSettleMax
// iterations.
const (
	dcSettleTol = 0.1 * scTol
	dcSettleMax = 100
)

// internalNewton is one driver's Newton workspace for settleInternals:
// the Jacobian of the internal nodes' current balance, its LU, the
// balance itself and the step.
type internalNewton struct {
	jac   *mat.Dense
	lu    *mat.LU
	f, dx []float64
}

func (d *Driver) newInternalNewton() internalNewton {
	k := d.outIdx
	return internalNewton{jac: mat.NewDense(k, k), lu: mat.NewLU(k), f: make([]float64, k), dx: make([]float64, k)}
}

// settleInternals solves the DC voltages of the internal nodes v[:outIdx]
// at the output voltage v holds, using x and bs (length outIdx) and b
// (length nUnk) as scratch. Each iteration first takes the chord update of
// the DC system, the fixed-point step the transient loop takes, and stops
// once it moves no node by more than dcSettleTol, so a settle that
// converges at once keeps the chord update's bits. Otherwise a Newton step
// on the internal nodes' current balance follows: near cutoff, where a
// stacked pass device charges its node toward VDD−VT, the max chord
// hardly contracts, and the devices' own conductances do. It reports
// false when dcSettleMax iterations did not converge.
func (d *Driver) settleInternals(v, b, x, bs []float64, nw *internalNewton, st *driverState) bool {
	u := v[:d.outIdx]
	for it := 0; it < dcSettleMax; it++ {
		d.rhsInto(b, v, true, st)
		d.internalsInto(x, bs, b, v[d.outIdx], &d.dc)
		delta := 0.0
		for k, xk := range x {
			delta = max(delta, math.Abs(xk-u[k]))
			u[k] = xk
		}
		if delta < dcSettleTol {
			return true
		}
		d.newtonStep(v, nw, st)
	}
	return false
}

// newtonStep moves the internal nodes v[:outIdx] by one Newton step on
// F(u) = f(u) + chordDiag·u, where f is the device current leaving each
// internal node: F's root is the DC chord iteration's fixed point. The
// step is clamped as the port-level Newton's is; a singular Jacobian
// leaves v as it is.
func (d *Driver) newtonStep(v []float64, nw *internalNewton, st *driverState) {
	n := d.outIdx
	j, f := nw.jac, nw.f
	j.Zero()
	for k := 0; k < n; k++ {
		f[k] = chordDiag * v[k]
		j.Set(k, k, chordDiag)
	}
	for devi := range d.devs {
		dev := &d.devs[devi]
		if dev.d >= n && dev.s >= n {
			continue
		}
		id, g := devCurrent(dev.model, st.geoms[devi], v[dev.d], v[dev.g], v[dev.s], v[dev.b])
		slots := [4]int{dev.d, dev.g, dev.s, dev.b}
		// The drain current leaves the drain node and enters the source
		// node.
		for _, row := range [2]struct {
			k    int
			sign float64
		}{{dev.d, 1}, {dev.s, -1}} {
			if row.k >= n {
				continue
			}
			f[row.k] += row.sign * id
			r := j.Row(row.k)
			for t, sl := range slots {
				if sl < n {
					r[sl] += row.sign * g[t]
				}
			}
		}
	}
	if nw.lu.Refactor(j) != nil {
		return
	}
	dx := nw.lu.SolveInto(nw.dx, f)
	clamp := 0.4 * d.vddVal
	for k := range dx {
		v[k] -= min(max(dx[k], -clamp), clamp)
	}
}

// devCurrent returns a transistor's drain current at the given terminal
// voltages and its partial derivatives with respect to the drain, gate,
// source and bulk voltages, in that order. device.EvalGeom's gm, gds and
// gmb are those partials while the device conducts forward (drain above
// source for NMOS, below it for PMOS); a reversed device is evaluated
// with drain and source swapped, which the symmetric Level-1 model
// allows.
func devCurrent(m *device.Model, g device.Geometry, vd, vg, vs, vb float64) (float64, [4]float64) {
	reversed := vd < vs
	if m.Type == circuit.PMOS {
		reversed = vd > vs
	}
	if reversed {
		op := device.EvalGeom(m, g, vs, vg, vd, vb)
		return -op.ID, [4]float64{op.Gm + op.Gds + op.Gmb, -op.Gm, -op.Gds, -op.Gmb}
	}
	op := device.EvalGeom(m, g, vd, vg, vs, vb)
	return op.ID, [4]float64{op.Gds, op.Gm, -(op.Gm + op.Gds + op.Gmb), op.Gmb}
}

// commit stores the capacitor histories of the converged step whose
// voltages (output included) v holds.
func (d *Driver) commit(v []float64, st *driverState) {
	for ci := range d.caps {
		c := &d.caps[ci]
		st.dPrev[ci] = v[c.a] - v[c.b]
	}
}
