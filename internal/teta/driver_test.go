package teta

import (
	"math"
	"math/rand"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
)

// refTerm is a driver terminal in the uncompiled formulation: its kind
// and, for an unknown or an input, its index.
type refTerm struct {
	kind int // refUnknown, refGround, refRail or refInput
	idx  int
}

const (
	refUnknown = iota
	refGround
	refRail
	refInput
)

// refDev and refCap are a driver's devices and capacitors in the
// uncompiled formulation.
type refDev struct{ d, g, s, b refTerm }

type refCap struct {
	a, b refTerm
	c    float64
}

// refDriver classifies the cell's nodes the way the driver did before it
// was compiled: output first, unknowns in order of first appearance, then
// the output swapped to the last unknown.
func refDriver(t *testing.T, cell *device.Cell, tech *device.ModelSet) ([]refDev, []refCap) {
	t.Helper()
	nl := circuit.New()
	in := make([]string, cell.NIn)
	inputIdx := map[circuit.NodeID]int{}
	for i := range in {
		in[i] = string(rune('a' + i))
		inputIdx[nl.Node(in[i])] = i
	}
	if err := cell.Instantiate(nl, "d", in, "out", device.BuildOpts{Tech: tech, Drive: 2}); err != nil {
		t.Fatal(err)
	}
	vddID := nl.Node("vdd")
	unk := map[circuit.NodeID]int{}
	classify := func(id circuit.NodeID) refTerm {
		switch {
		case id == circuit.Gnd:
			return refTerm{kind: refGround}
		case id == vddID:
			return refTerm{kind: refRail}
		}
		if k, ok := inputIdx[id]; ok {
			return refTerm{kind: refInput, idx: k}
		}
		if k, ok := unk[id]; ok {
			return refTerm{kind: refUnknown, idx: k}
		}
		unk[id] = len(unk)
		return refTerm{kind: refUnknown, idx: len(unk) - 1}
	}
	classify(nl.Node("out"))
	var devs []refDev
	var caps []refCap
	for _, m := range nl.MOSFETs {
		mod, err := tech.Lookup(m.Model)
		if err != nil {
			t.Fatal(err)
		}
		dv := refDev{d: classify(m.D), g: classify(m.G), s: classify(m.S), b: classify(m.B)}
		devs = append(devs, dv)
		geom := device.Geometry{W: m.W, L: m.L}
		cg := mod.GateCap(geom) / 2
		cj := mod.JunctionCap(geom)
		caps = append(caps, refCap{dv.g, dv.s, cg}, refCap{dv.g, dv.d, cg}, refCap{dv.d, dv.b, cj}, refCap{dv.s, dv.b, cj})
	}
	last := len(unk) - 1
	swap := func(r *refTerm) {
		if r.kind == refUnknown {
			switch r.idx {
			case 0:
				r.idx = last
			case last:
				r.idx = 0
			}
		}
	}
	for i := range devs {
		swap(&devs[i].d)
		swap(&devs[i].g)
		swap(&devs[i].s)
		swap(&devs[i].b)
	}
	for i := range caps {
		swap(&caps[i].a)
		swap(&caps[i].b)
	}
	return devs, caps
}

// refTermV is the uncompiled terminal-voltage lookup.
func refTermV(r refTerm, vdd float64, unk, vin []float64) float64 {
	switch r.kind {
	case refGround:
		return 0
	case refRail:
		return vdd
	case refInput:
		return vin[r.idx]
	default:
		return unk[r.idx]
	}
}

// refRHS is the chord right-hand side in the uncompiled formulation.
func refRHS(d *Driver, devs []refDev, caps []refCap, h float64, b, unk, vin []float64, dc bool, st *driverState) {
	for i := range b {
		b[i] = 0
	}
	for i, dv := range devs {
		vd := refTermV(dv.d, d.vddVal, unk, vin)
		vg := refTermV(dv.g, d.vddVal, unk, vin)
		vs := refTermV(dv.s, d.vddVal, unk, vin)
		vb := refTermV(dv.b, d.vddVal, unk, vin)
		id := st.evals[i].ID(vd, vg, vs, vb)
		chord := d.devs[i].chord
		iNort := chord*(vd-vs) - id
		if dv.d.kind == refUnknown {
			b[dv.d.idx] += iNort
			if dv.s.kind != refUnknown {
				b[dv.d.idx] += chord * vs
			}
		}
		if dv.s.kind == refUnknown {
			b[dv.s.idx] -= iNort
			if dv.d.kind != refUnknown {
				b[dv.s.idx] += chord * vd
			}
		}
	}
	if dc {
		return
	}
	for ci, c := range caps {
		geq := c.c / h
		hist := geq * st.dPrev[ci]
		if c.a.kind == refUnknown {
			b[c.a.idx] += hist
			if c.b.kind != refUnknown {
				b[c.a.idx] += geq * refTermV(c.b, d.vddVal, unk, vin)
			}
		}
		if c.b.kind == refUnknown {
			b[c.b.idx] -= hist
			if c.a.kind != refUnknown {
				b[c.b.idx] += geq * refTermV(c.a, d.vddVal, unk, vin)
			}
		}
	}
}

// TestCompiledDriverMatchesTerminalForm checks, on every library cell at
// random voltages, deviations and capacitor histories, that the compiled
// driver's DC and transient right-hand sides and its committed capacitor
// histories are bit-identical to the uncompiled terminal formulation.
func TestCompiledDriverMatchesTerminalForm(t *testing.T) {
	tech := device.Tech180
	const h = 4e-12
	rng := rand.New(rand.NewSource(3))
	names := append(device.CellNames(), "AND2", "OR2")
	for _, name := range names {
		cell, err := device.LookupCell(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := newDriver(DriverSpec{Name: name, Cell: cell, Drive: 2}, tech, ChordMax, h)
		if err != nil {
			t.Fatal(err)
		}
		devs, caps := refDriver(t, cell, tech)
		if len(devs) != len(d.devs) || len(caps) != len(d.caps) {
			t.Fatalf("%s: %d devices and %d caps, reference has %d and %d", name, len(d.devs), len(d.caps), len(devs), len(caps))
		}
		v := d.newVoltages()
		unk, vin := v[:d.nUnk], v[d.nUnk:d.nUnk+d.nIn]
		b, ref := make([]float64, d.nUnk), make([]float64, d.nUnk)
		for trial := 0; trial < 200; trial++ {
			st := d.newState((2*rng.Float64()-1)*tech.TolDL, (2*rng.Float64()-1)*tech.TolDVT)
			for i := range unk {
				unk[i] = -0.2 + (tech.VDD+0.4)*rng.Float64()
			}
			for i := range vin {
				vin[i] = tech.VDD * rng.Float64()
			}
			for i := range st.dPrev {
				st.dPrev[i] = (2*rng.Float64() - 1) * tech.VDD
			}
			for _, dc := range []bool{true, false} {
				d.rhsInto(b, v, dc, st)
				refRHS(d, devs, caps, h, ref, unk, vin, dc, st)
				for i := range b {
					if math.Float64bits(b[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s trial %d dc=%v: rhs[%d] = %v, terminal form %v", name, trial, dc, i, b[i], ref[i])
					}
				}
			}
			d.commit(v, st)
			for ci, c := range caps {
				want := refTermV(c.a, d.vddVal, unk, vin) - refTermV(c.b, d.vddVal, unk, vin)
				if math.Float64bits(st.dPrev[ci]) != math.Float64bits(want) {
					t.Fatalf("%s trial %d: committed dPrev[%d] = %v, terminal form %v", name, trial, ci, st.dPrev[ci], want)
				}
			}
		}
	}
}

// TestDevCurrentPartials checks devCurrent's current and partial
// derivatives against central differences of device.EvalGeom's current,
// for both polarities conducting forward and reversed, since the
// internal-node Newton builds its Jacobian from them.
func TestDevCurrentPartials(t *testing.T) {
	tech := device.Tech180
	g := device.Geometry{W: 1e-6, L: tech.MinL}
	const h = 1e-6
	cases := []struct {
		name           string
		m              *device.Model
		vd, vg, vs, vb float64
	}{
		{"nmos forward", tech.NMOS, 1.2, 1.5, 0.3, 0},
		{"nmos reversed", tech.NMOS, 0.3, 1.5, 1.2, 0},
		{"pmos forward", tech.PMOS, 0.4, 0.2, 1.6, 1.8},
		{"pmos reversed", tech.PMOS, 1.6, 0.2, 0.4, 1.8},
	}
	for _, c := range cases {
		id, grad := devCurrent(c.m, g, c.vd, c.vg, c.vs, c.vb)
		if want := device.EvalGeom(c.m, g, c.vd, c.vg, c.vs, c.vb).ID; math.Abs(id-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s: current %g, EvalGeom %g", c.name, id, want)
		}
		for k := range grad {
			lo := [4]float64{c.vd, c.vg, c.vs, c.vb}
			hi := lo
			lo[k] -= h
			hi[k] += h
			fd := (device.EvalGeom(c.m, g, hi[0], hi[1], hi[2], hi[3]).ID - device.EvalGeom(c.m, g, lo[0], lo[1], lo[2], lo[3]).ID) / (2 * h)
			if math.Abs(grad[k]-fd) > 1e-4*math.Abs(fd)+1e-9 {
				t.Errorf("%s: partial %d = %g, central difference %g", c.name, k, grad[k], fd)
			}
		}
	}
}
