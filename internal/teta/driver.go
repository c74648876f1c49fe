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

// terminal classifies a driver-local node.
type terminal struct {
	kind termKind
	idx  int // unknown index, or input index
	v    float64
}

type termKind int

const (
	termUnknown termKind = iota
	termGround
	termRail
	termInput
)

// drvDev is one transistor inside a driver with resolved terminals.
type drvDev struct {
	dev        circuit.MOSFET
	model      *device.Model
	d, g, s, b terminal
	chord      float64
}

// drvCap is one (constant) device capacitance inside the driver.
type drvCap struct {
	a, b terminal
	c    float64
}

// Driver is a Successive-Chords Norton model of one logic stage driver.
type Driver struct {
	Name string
	Cell *device.Cell
	Port int // load port index the output drives

	tech   *device.ModelSet
	devs   []drvDev
	caps   []drvCap
	nUnk   int // internal unknowns + output (output is last)
	outIdx int

	nIn    int
	vddVal float64

	// Transient system (chords + C/h companions), prefactored.
	gOut float64   // Schur-complement output conductance (depends on h)
	aii  *mat.LU   // internal block factorization (nil when no internals)
	aio  []float64 // internal-to-output column
	aoi  []float64 // output-to-internal row
	aoo  float64
	h    float64

	// DC system (chords only).
	dcAii  *mat.LU
	dcAio  []float64
	dcAoi  []float64
	dcAoo  float64
	dcGOut float64
}

// driverState is the per-run mutable state of a driver, kept outside the
// Driver so one characterized Stage can run many samples concurrently.
type driverState struct {
	dPrev   []float64 // per-capacitor v(a)−v(b) at the last committed step
	vInt    []float64 // committed internal node voltages
	vOut    float64
	vIn     []float64 // committed input voltages
	dl, dvt float64   // sample deviations (chords stay nominal)

	// geoms holds each device's geometry with the sample's DL/DVT already
	// folded in, and evals the corresponding Level-1 evaluation caches the
	// inner rhs loop consumes. full is commit's terminal-voltage scratch.
	geoms []device.Geometry
	evals []device.EvalCache
	full  []float64
}

// newState allocates run state for one statistical sample (paper §5.3's
// DL and VT deviations). Chord systems are NOT re-derived — the
// framework's key efficiency property.
func (d *Driver) newState(dl, dvt float64) *driverState {
	st := &driverState{
		dPrev: make([]float64, len(d.caps)),
		vInt:  make([]float64, d.outIdx),
		vIn:   make([]float64, d.nIn),
		geoms: make([]device.Geometry, len(d.devs)),
		evals: make([]device.EvalCache, len(d.devs)),
		full:  make([]float64, d.nUnk),
	}
	d.resetState(st, dl, dvt)
	return st
}

// resetState rewinds a state for a new sample without reallocating:
// committed voltages and capacitor histories are cleared and the device
// geometries are re-resolved with the sample's deviations.
func (d *Driver) resetState(st *driverState, dl, dvt float64) {
	for i := range st.dPrev {
		st.dPrev[i] = 0
	}
	for i := range st.vInt {
		st.vInt[i] = 0
	}
	for i := range st.vIn {
		st.vIn[i] = 0
	}
	st.vOut = 0
	st.dl, st.dvt = dl, dvt
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

// DriverSpec describes a driver to attach to a stage.
type DriverSpec struct {
	Name  string
	Cell  *device.Cell
	Drive float64
	Port  int // index of the load port the output connects to
}

// newDriver expands the cell and prepares the chord system. h is the
// simulation timestep (G_out depends on it, as the paper notes).
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
		tech: tech, nIn: spec.Cell.NIn, vddVal: tech.VDD, h: h,
	}
	// Classify nodes: unknowns = everything except gnd, vdd, inputs.
	inputIdx := map[circuit.NodeID]int{}
	for i, n := range inNames {
		inputIdx[nl.Node(n)] = i
	}
	vddID := nl.Node("vdd")
	outID := nl.Node("out")
	unkIdx := map[circuit.NodeID]int{}
	classify := func(id circuit.NodeID) terminal {
		switch {
		case id == circuit.Gnd:
			return terminal{kind: termGround}
		case id == vddID:
			return terminal{kind: termRail, v: tech.VDD}
		default:
			if k, ok := inputIdx[id]; ok {
				return terminal{kind: termInput, idx: k}
			}
			if k, ok := unkIdx[id]; ok {
				return terminal{kind: termUnknown, idx: k}
			}
			k := len(unkIdx)
			unkIdx[id] = k
			return terminal{kind: termUnknown, idx: k}
		}
	}
	// Make the output the first classified unknown, then re-index at the
	// end so it is last (the Schur elimination keeps internals together).
	classify(outID)
	for _, m := range nl.MOSFETs {
		mod, err := tech.Lookup(m.Model)
		if err != nil {
			return nil, err
		}
		dd := drvDev{
			dev: m, model: mod,
			d: classify(m.D), g: classify(m.G), s: classify(m.S), b: classify(m.B),
			chord: chordConductance(mod, m, tech.VDD, policy),
		}
		d.devs = append(d.devs, dd)
		geom := device.Geometry{W: m.W, L: m.L}
		cg := mod.GateCap(geom) / 2
		cj := mod.JunctionCap(geom)
		d.caps = append(d.caps,
			drvCap{a: dd.g, b: dd.s, c: cg},
			drvCap{a: dd.g, b: dd.d, c: cg},
			drvCap{a: dd.d, b: dd.b, c: cj},
			drvCap{a: dd.s, b: dd.b, c: cj},
		)
	}
	d.nUnk = len(unkIdx)
	// Swap output (currently index 0) to the last slot.
	last := d.nUnk - 1
	swap := func(t *terminal) {
		if t.kind != termUnknown {
			return
		}
		if t.idx == 0 {
			t.idx = last
		} else if t.idx == last {
			t.idx = 0
		}
	}
	for i := range d.devs {
		swap(&d.devs[i].d)
		swap(&d.devs[i].g)
		swap(&d.devs[i].s)
		swap(&d.devs[i].b)
	}
	for i := range d.caps {
		swap(&d.caps[i].a)
		swap(&d.caps[i].b)
	}
	d.outIdx = last

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
	stamp := func(a *mat.Dense, t1, t2 terminal, g float64) {
		if t1.kind == termUnknown {
			a.Add(t1.idx, t1.idx, g)
		}
		if t2.kind == termUnknown {
			a.Add(t2.idx, t2.idx, g)
		}
		if t1.kind == termUnknown && t2.kind == termUnknown {
			a.Add(t1.idx, t2.idx, -g)
			a.Add(t2.idx, t1.idx, -g)
		}
	}
	for _, dev := range d.devs {
		stamp(aTr, dev.d, dev.s, dev.chord)
		stamp(aDC, dev.d, dev.s, dev.chord)
	}
	for _, c := range d.caps {
		stamp(aTr, c.a, c.b, c.c/d.h)
	}
	for i := 0; i < n; i++ {
		aTr.Add(i, i, 1e-12)
		aDC.Add(i, i, 1e-12)
	}
	var err error
	d.gOut, d.aii, d.aio, d.aoi, d.aoo, err = schurAtOutput(aTr, d.outIdx)
	if err != nil {
		return fmt.Errorf("teta: driver %s transient system: %w", d.Name, err)
	}
	d.dcGOut, d.dcAii, d.dcAio, d.dcAoi, d.dcAoo, err = schurAtOutput(aDC, d.outIdx)
	if err != nil {
		return fmt.Errorf("teta: driver %s DC system: %w", d.Name, err)
	}
	return nil
}

// schurAtOutput partitions A with the output as the last unknown and
// returns the Norton output conductance plus the pieces needed for fast
// per-iteration Norton-current extraction.
func schurAtOutput(a *mat.Dense, out int) (gout float64, aii *mat.LU, aio, aoi []float64, aoo float64, err error) {
	n := a.Rows()
	if out != n-1 {
		return 0, nil, nil, nil, 0, fmt.Errorf("output must be the last unknown")
	}
	ni := n - 1
	aoo = a.At(out, out)
	if ni == 0 {
		return aoo, nil, nil, nil, aoo, nil
	}
	inner := mat.NewDense(ni, ni)
	aio = make([]float64, ni)
	aoi = make([]float64, ni)
	for i := 0; i < ni; i++ {
		for j := 0; j < ni; j++ {
			inner.Set(i, j, a.At(i, j))
		}
		aio[i] = a.At(i, out)
		aoi[i] = a.At(out, i)
	}
	aii, err = mat.FactorLU(inner)
	if err != nil {
		return 0, nil, nil, nil, 0, err
	}
	x := aii.Solve(aio)
	gout = aoo - mat.Dot(aoi, x)
	return gout, aii, aio, aoi, aoo, nil
}

// GOut returns the chord Norton output conductance folded into the load.
func (d *Driver) GOut() float64 { return d.gOut }

// termV evaluates a terminal voltage given the current unknown vector and
// input values.
func (d *Driver) termV(t terminal, unk []float64, vin []float64) float64 {
	switch t.kind {
	case termGround:
		return 0
	case termRail:
		return d.vddVal
	case termInput:
		return vin[t.idx]
	default:
		return unk[t.idx]
	}
}

// rhsInto evaluates every device at the given local voltages and
// accumulates the chord Norton right-hand side into b (length nUnk),
// which is zeroed first.
func (d *Driver) rhsInto(b []float64, unk []float64, vinNew []float64, dc bool, st *driverState) {
	for i := range b {
		b[i] = 0
	}
	for devi := range d.devs {
		dev := &d.devs[devi]
		vd := d.termV(dev.d, unk, vinNew)
		vg := d.termV(dev.g, unk, vinNew)
		vs := d.termV(dev.s, unk, vinNew)
		vb := d.termV(dev.b, unk, vinNew)
		id := st.evals[devi].ID(vd, vg, vs, vb)
		// Chord model: ID ≈ g_c(vd−vs) + (ID* − g_c·vds*); the constant
		// part moves to the RHS. Fixed-terminal chord contributions also
		// land on the RHS.
		iNort := dev.chord*(vd-vs) - id
		if dev.d.kind == termUnknown {
			b[dev.d.idx] += iNort
			if dev.s.kind != termUnknown {
				b[dev.d.idx] += dev.chord * vs
			}
		}
		if dev.s.kind == termUnknown {
			b[dev.s.idx] -= iNort
			if dev.d.kind != termUnknown {
				b[dev.s.idx] += dev.chord * vd
			}
		}
	}
	if dc {
		return
	}
	// Capacitor BE companions: i = (C/h)[(va−vb) − dPrev].
	for ci := range d.caps {
		c := &d.caps[ci]
		geq := c.c / d.h
		hist := geq * st.dPrev[ci]
		if c.a.kind == termUnknown {
			b[c.a.idx] += hist
			if c.b.kind != termUnknown {
				b[c.a.idx] += geq * d.termV(c.b, unk, vinNew)
			}
		}
		if c.b.kind == termUnknown {
			b[c.b.idx] -= hist
			if c.a.kind != termUnknown {
				b[c.b.idx] += geq * d.termV(c.a, unk, vinNew)
			}
		}
	}
}

// nortonS computes the Norton source current I_N = b_o − Aoi·Aii⁻¹·b_i
// for the right-hand side b, using xs (length outIdx) as the solve
// scratch.
func (d *Driver) nortonS(b, xs []float64, dc bool) float64 {
	bo := b[d.outIdx]
	if d.nUnk == 1 {
		return bo
	}
	bi := b[:d.outIdx]
	if dc {
		d.dcAii.SolveInto(xs, bi)
		return bo - mat.Dot(d.dcAoi, xs)
	}
	d.aii.SolveInto(xs, bi)
	return bo - mat.Dot(d.aoi, xs)
}

// internalsInto recovers the internal node voltages for output voltage
// vout into dst (length outIdx; may be the unknown vector's internal
// prefix), using bs (length outIdx) as the right-hand-side scratch.
func (d *Driver) internalsInto(dst, bs, b []float64, vout float64, dc bool) {
	if d.nUnk == 1 {
		return
	}
	copy(bs, b[:d.outIdx])
	if dc {
		for i := range bs {
			bs[i] -= d.dcAio[i] * vout
		}
		d.dcAii.SolveInto(dst, bs)
		return
	}
	for i := range bs {
		bs[i] -= d.aio[i] * vout
	}
	d.aii.SolveInto(dst, bs)
}

// commit stores the converged step state: internal voltages, output
// voltage, input values and capacitor histories.
func (d *Driver) commit(unk []float64, vout float64, vin []float64, st *driverState) {
	st.vInt = append(st.vInt[:0], unk[:d.outIdx]...)
	st.vOut = vout
	st.vIn = append(st.vIn[:0], vin...)
	full := st.full
	copy(full, unk)
	full[d.outIdx] = vout
	for ci, c := range d.caps {
		st.dPrev[ci] = d.termV(c.a, full, vin) - d.termV(c.b, full, vin)
	}
}
