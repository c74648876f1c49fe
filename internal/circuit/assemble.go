package circuit

import (
	"fmt"

	"lcsim/internal/sparse"
)

// VarSystem is the variational nodal formulation of the linear (RC)
// sub-network of a netlist, ordered so the designated ports come first
// (paper eq. 2):
//
//	G(w) = G0 + Σ_p DG[p]·w_p       C(w) = C0 + Σ_p DC[p]·w_p
//
// Resistor conductances are linearized to first order around the nominal
// (the affine element value is exact for capacitors, first-order for
// 1/R). ExactG/ExactC restamp the true element values at a sample, which
// is what the reference (SPICE-style) simulation uses.
type VarSystem struct {
	N      int   // number of non-ground nodes
	Np     int   // number of ports (first Np indices)
	Order  []int // Order[origNode] = system index
	Params []string

	G0, C0 *sparse.CSC
	DG, DC map[string]*sparse.CSC

	// PortG holds extra conductances added on the port diagonals; this is
	// how the chord output conductances G_SC enter the effective load
	// (paper eq. 12) before reduction.
	PortG []float64

	nl *Netlist
}

// AssembleVariational builds the variational nodal system for the linear
// elements of nl. All non-ground nodes participate; ports come first in
// declaration order. Returns an error if the netlist has no nodes or a
// non-positive nominal resistance.
func AssembleVariational(nl *Netlist) (*VarSystem, error) {
	n := nl.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("circuit: netlist has no nodes")
	}
	ports := nl.Ports()
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	for i, p := range ports {
		order[p] = i
	}
	next := len(ports)
	for i := 0; i < n; i++ {
		if order[i] == -1 {
			order[i] = next
			next++
		}
	}
	s := &VarSystem{
		N:      n,
		Np:     len(ports),
		Order:  order,
		Params: nl.Params(),
		DG:     map[string]*sparse.CSC{},
		DC:     map[string]*sparse.CSC{},
		PortG:  make([]float64, len(ports)),
		nl:     nl,
	}
	g0 := sparse.NewTriplet(n)
	c0 := sparse.NewTriplet(n)
	dg := map[string]*sparse.Triplet{}
	dc := map[string]*sparse.Triplet{}
	for _, p := range s.Params {
		dg[p] = sparse.NewTriplet(n)
		dc[p] = sparse.NewTriplet(n)
	}
	for _, r := range nl.Resistors {
		if r.R.Nominal <= 0 {
			return nil, fmt.Errorf("circuit: resistor %s has non-positive nominal %g", r.Name, r.R.Nominal)
		}
		g := 1 / r.R.Nominal
		s.stamp(g0, r.A, r.B, g)
		for p, dR := range r.R.Sens {
			if dR != 0 {
				// d(1/R)/dw = -R'/R0^2
				s.stamp(dg[p], r.A, r.B, -dR/(r.R.Nominal*r.R.Nominal))
			}
		}
	}
	for _, g := range nl.Conductors {
		if g.G.Nominal <= 0 {
			return nil, fmt.Errorf("circuit: conductor %s has non-positive nominal %g", g.Name, g.G.Nominal)
		}
		s.stamp(g0, g.A, g.B, g.G.Nominal)
		for p, dG := range g.G.Sens {
			if dG != 0 {
				s.stamp(dg[p], g.A, g.B, dG)
			}
		}
	}
	for _, c := range nl.Capacitors {
		s.stamp(c0, c.A, c.B, c.C.Nominal)
		for p, dC := range c.C.Sens {
			if dC != 0 {
				s.stamp(dc[p], c.A, c.B, dC)
			}
		}
	}
	s.G0 = g0.Compile()
	s.C0 = c0.Compile()
	for _, p := range s.Params {
		s.DG[p] = dg[p].Compile()
		s.DC[p] = dc[p].Compile()
	}
	return s, nil
}

// stamp adds a two-terminal admittance-type value into a triplet using the
// system ordering, skipping ground.
func (s *VarSystem) stamp(tr *sparse.Triplet, a, b NodeID, v float64) {
	var ia, ib = -1, -1
	if a != Gnd {
		ia = s.Order[a]
	}
	if b != Gnd {
		ib = s.Order[b]
	}
	if ia >= 0 {
		tr.Add(ia, ia, v)
	}
	if ib >= 0 {
		tr.Add(ib, ib, v)
	}
	if ia >= 0 && ib >= 0 {
		tr.Add(ia, ib, -v)
		tr.Add(ib, ia, -v)
	}
}

// SetPortConductance sets the extra diagonal conductances (one per port)
// folded into the effective load, i.e. diag(G_SC) of paper eq. 12.
func (s *VarSystem) SetPortConductance(g []float64) error {
	if len(g) != s.Np {
		return fmt.Errorf("circuit: SetPortConductance got %d values for %d ports", len(g), s.Np)
	}
	copy(s.PortG, g)
	return nil
}

// addPortG folds PortG onto the diagonal of a compiled matrix.
func (s *VarSystem) addPortG(c *sparse.CSC) *sparse.CSC {
	any := false
	for _, g := range s.PortG {
		if g != 0 {
			any = true
			break
		}
	}
	if !any {
		return c
	}
	tr := sparse.NewTriplet(s.N)
	for i, g := range s.PortG {
		tr.Add(i, i, g)
	}
	return sparse.AddScaled(c, 1, tr.Compile())
}

// GNominal returns G0 with the port conductances folded in.
func (s *VarSystem) GNominal() *sparse.CSC { return s.addPortG(s.G0) }

// CNominal returns C0.
func (s *VarSystem) CNominal() *sparse.CSC { return s.C0 }

// GFirstOrder evaluates the first-order variational G(w) = G0 + Σ DG·w,
// with port conductances folded in.
func (s *VarSystem) GFirstOrder(w map[string]float64) *sparse.CSC {
	out := s.G0
	for _, p := range s.Params {
		if wv := w[p]; wv != 0 {
			out = sparse.AddScaled(out, wv, s.DG[p])
		}
	}
	return s.addPortG(out)
}

// CFirstOrder evaluates the first-order variational C(w).
func (s *VarSystem) CFirstOrder(w map[string]float64) *sparse.CSC {
	out := s.C0
	for _, p := range s.Params {
		if wv := w[p]; wv != 0 {
			out = sparse.AddScaled(out, wv, s.DC[p])
		}
	}
	return out
}

// ExactG restamps the true (not linearized) conductances at sample w, with
// port conductances folded in. This is the golden reference the framework
// is compared against.
func (s *VarSystem) ExactG(w map[string]float64) (*sparse.CSC, error) {
	tr := sparse.NewTriplet(s.N)
	for _, r := range s.nl.Resistors {
		rv := r.R.Eval(w)
		if rv <= 0 {
			return nil, fmt.Errorf("circuit: resistor %s evaluates to non-positive %g at sample", r.Name, rv)
		}
		s.stamp(tr, r.A, r.B, 1/rv)
	}
	for _, g := range s.nl.Conductors {
		gv := g.G.Eval(w)
		if gv <= 0 {
			return nil, fmt.Errorf("circuit: conductor %s evaluates to non-positive %g at sample", g.Name, gv)
		}
		s.stamp(tr, g.A, g.B, gv)
	}
	for i, g := range s.PortG {
		tr.Add(i, i, g)
	}
	return tr.Compile(), nil
}

// ExactC restamps the true capacitances at sample w.
func (s *VarSystem) ExactC(w map[string]float64) *sparse.CSC {
	tr := sparse.NewTriplet(s.N)
	for _, c := range s.nl.Capacitors {
		s.stamp(tr, c.A, c.B, c.C.Eval(w))
	}
	return tr.Compile()
}
