package mor

import (
	"math"
	"math/cmplx"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/interconnect"
	"lcsim/internal/mat"
	"lcsim/internal/sparse"
)

// ladderSystem builds a 1-port RC ladder with nSeg segments and returns the
// assembled variational system (port conductance g0 folded in).
func ladderSystem(t *testing.T, nSeg int, g0 float64, variational bool) *circuit.VarSystem {
	t.Helper()
	nl := circuit.New()
	rv := circuit.V(10.0)
	cv := circuit.V(1e-12)
	if variational {
		rv = circuit.VarV(10.0, "p", 50.0)
		cv = circuit.VarV(1e-12, "p", 1e-11)
	}
	prev := "in"
	for k := 1; k <= nSeg; k++ {
		n := "n" + string(rune('a'+k%26)) + string(rune('0'+k/26))
		nl.AddR("R"+n, prev, n, rv)
		nl.AddC("C"+n, n, "0", cv)
		prev = n
	}
	nl.MarkPort("in")
	sys, err := circuit.AssembleVariational(nl)
	if err != nil {
		t.Fatal(err)
	}
	if g0 > 0 {
		if err := sys.SetPortConductance([]float64{g0}); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestReduceBlockStructure(t *testing.T) {
	sys := ladderSystem(t, 20, 1e-3, false)
	rom, err := Reduce(sys.GNominal(), sys.CNominal(), sys.Np, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rom.Q() != 5 {
		t.Fatalf("Q = %d, want 5 (1 port + 4 internal)", rom.Q())
	}
	// Gr must be block diagonal: port-internal coupling eliminated
	// (the paper's eq. 5 structure).
	for j := rom.Np; j < rom.Q(); j++ {
		for i := 0; i < rom.Np; i++ {
			if math.Abs(rom.Gr.At(i, j)) > 1e-9*rom.Gr.MaxAbs() {
				t.Fatalf("Gr port-internal block not zero at (%d,%d): %g", i, j, rom.Gr.At(i, j))
			}
		}
	}
	if !rom.Gr.IsSymmetric(1e-9 * rom.Gr.MaxAbs()) {
		t.Fatal("nominal Gr must be symmetric (congruence of symmetric G)")
	}
	if !rom.Cr.IsSymmetric(1e-9 * rom.Cr.MaxAbs()) {
		t.Fatal("nominal Cr must be symmetric")
	}
}

func TestReduceMatchesFullImpedance(t *testing.T) {
	sys := ladderSystem(t, 30, 1e-3, false)
	g, c := sys.GNominal(), sys.CNominal()
	rom, err := Reduce(g, c, sys.Np, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Compare Z(s) over the band where the ladder has its dominant poles.
	// tau per segment ~ 10Ω·1pF; full ladder tau ~ n²·RC/2 ≈ 4.5e-9.
	for _, f := range []float64{1e6, 1e7, 1e8, 5e8} {
		s := complex(0, 2*math.Pi*f)
		zFull, err := PortImpedance(g, c, sys.Np, s)
		if err != nil {
			t.Fatal(err)
		}
		zRom, err := rom.ROMImpedance(s)
		if err != nil {
			t.Fatal(err)
		}
		rel := cmplx.Abs(zRom.At(0, 0)-zFull.At(0, 0)) / cmplx.Abs(zFull.At(0, 0))
		if rel > 0.02 {
			t.Fatalf("ROM impedance error %.3g at f=%g (Z=%v vs %v)", rel, f, zRom.At(0, 0), zFull.At(0, 0))
		}
	}
}

func TestReduceDCExact(t *testing.T) {
	// At s=0 the split congruence preserves the DC input conductance
	// exactly (A is the exact Schur complement).
	sys := ladderSystem(t, 25, 2e-3, false)
	g, c := sys.GNominal(), sys.CNominal()
	rom, err := Reduce(g, c, sys.Np, 2)
	if err != nil {
		t.Fatal(err)
	}
	zFull, err := PortImpedance(g, c, sys.Np, 0)
	if err != nil {
		t.Fatal(err)
	}
	zRom, err := rom.ROMImpedance(0)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(zRom.At(0, 0)-zFull.At(0, 0)) > 1e-9*cmplx.Abs(zFull.At(0, 0)) {
		t.Fatalf("DC impedance not exact: %v vs %v", zRom.At(0, 0), zFull.At(0, 0))
	}
}

func TestReduceMultiport(t *testing.T) {
	// 3 coupled lines, 3 ports; the reduced multiport must reproduce the
	// transfer impedances including coupling.
	bus := interconnect.BuildBus(interconnect.Wire180, 3, 30, 1, false)
	for _, n := range bus.In {
		bus.Netlist.MarkPort(n)
	}
	sys, err := circuit.AssembleVariational(bus.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetPortConductance([]float64{1e-3, 1e-3, 1e-3}); err != nil {
		t.Fatal(err)
	}
	g, c := sys.GNominal(), sys.CNominal()
	rom, err := Reduce(g, c, sys.Np, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := complex(0, 2*math.Pi*1e8)
	zFull, err := PortImpedance(g, c, sys.Np, s)
	if err != nil {
		t.Fatal(err)
	}
	zRom, err := rom.ROMImpedance(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			d := cmplx.Abs(zRom.At(i, j) - zFull.At(i, j))
			if d > 0.05*cmplx.Abs(zFull.At(0, 0)) {
				t.Fatalf("multiport Z(%d,%d) error %g", i, j, d)
			}
		}
	}
}

func TestReduceErrors(t *testing.T) {
	sys := ladderSystem(t, 5, 1e-3, false)
	if _, err := Reduce(sys.GNominal(), sys.CNominal(), 0, 2); err == nil {
		t.Fatal("np=0 must error")
	}
	if _, err := Reduce(sys.GNominal(), sys.CNominal(), sys.N, 2); err == nil {
		t.Fatal("all-ports must error (nothing to reduce)")
	}
}

func TestReduceSingularInternal(t *testing.T) {
	// An internal node with no conductive path: Gii singular.
	nl := circuit.New()
	nl.AddR("R1", "in", "0", circuit.V(10))
	nl.AddC("C1", "in", "float", circuit.V(1e-12))
	nl.AddC("C2", "float", "0", circuit.V(1e-12))
	nl.MarkPort("in")
	sys, err := circuit.AssembleVariational(nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reduce(sys.GNominal(), sys.CNominal(), sys.Np, 1); err == nil {
		t.Fatal("singular internal block must error")
	}
}

func TestBuildVariationalNominalMatchesReduce(t *testing.T) {
	sys := ladderSystem(t, 20, 1e-3, true)
	vr, err := BuildVariational(sys, BuildOptions{Order: 4})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Reduce(sys.GNominal(), sys.CNominal(), sys.Np, 4)
	if err != nil {
		t.Fatal(err)
	}
	nom := vr.Nominal()
	for i := 0; i < nom.Q(); i++ {
		for j := 0; j < nom.Q(); j++ {
			if math.Abs(nom.Gr.At(i, j)-direct.Gr.At(i, j)) > 1e-9*direct.Gr.MaxAbs() {
				t.Fatalf("nominal Gr differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestVariationalFirstOrderAccuracy(t *testing.T) {
	// For a small parameter sample, the library evaluation must agree with
	// a full re-reduction at that sample to first order.
	sys := ladderSystem(t, 20, 1e-3, true)
	vr, err := BuildVariational(sys, BuildOptions{Order: 4})
	if err != nil {
		t.Fatal(err)
	}
	w := map[string]float64{"p": 0.01}
	lib := vr.At(w)
	direct, err := Reduce(sys.GFirstOrder(w), sys.CFirstOrder(w), sys.Np, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Compare port impedances (basis-independent) rather than raw matrices.
	s := complex(0, 2*math.Pi*1e8)
	zLib, err := lib.ROMImpedance(s)
	if err != nil {
		t.Fatal(err)
	}
	zDir, err := direct.ROMImpedance(s)
	if err != nil {
		t.Fatal(err)
	}
	rel := cmplx.Abs(zLib.At(0, 0)-zDir.At(0, 0)) / cmplx.Abs(zDir.At(0, 0))
	if rel > 0.01 {
		t.Fatalf("library vs direct re-reduction differ by %.3g at small w", rel)
	}
}

func TestVariationalSensitivityNonzero(t *testing.T) {
	sys := ladderSystem(t, 10, 1e-3, true)
	vr, err := BuildVariational(sys, BuildOptions{Order: 3})
	if err != nil {
		t.Fatal(err)
	}
	if vr.DGr["p"].MaxAbs() == 0 {
		t.Fatal("dGr must be nonzero for a variational resistor")
	}
	if vr.DCr["p"].MaxAbs() == 0 {
		t.Fatal("dCr must be nonzero for a variational capacitor")
	}
}

func TestVariationalLosesCongruenceStructure(t *testing.T) {
	// The first-order evaluated Gr(w) generally loses the exact
	// block-diagonal congruence structure — the root cause of the paper's
	// passivity problem. Verify the off-diagonal block becomes nonzero.
	sys := ladderSystem(t, 20, 1e-3, true)
	vr, err := BuildVariational(sys, BuildOptions{Order: 4})
	if err != nil {
		t.Fatal(err)
	}
	rom := vr.At(map[string]float64{"p": 0.1})
	off := 0.0
	for i := 0; i < rom.Np; i++ {
		for j := rom.Np; j < rom.Q(); j++ {
			off = math.Max(off, math.Abs(rom.Gr.At(i, j)))
		}
	}
	if off == 0 {
		t.Fatal("expected nonzero port-internal Gr coupling at w != 0")
	}
}

func TestExtractHelper(t *testing.T) {
	tr := sparse.NewTriplet(4)
	tr.Add(0, 0, 1)
	tr.Add(1, 2, 5)
	tr.Add(3, 3, 7)
	c := tr.Compile()
	sub := c.Extract([]int{1, 3}, []int{2, 3})
	if sub.At(0, 0) != 5 || sub.At(1, 1) != 7 {
		t.Fatalf("Extract wrong: %v %v", sub.At(0, 0), sub.At(1, 1))
	}
	if sub.At(0, 1) != 0 {
		t.Fatal("Extract must not invent entries")
	}
}

func TestReduceMorePortsThanInternals(t *testing.T) {
	// 2 ports, 1 internal node: exercises the rectangular Extract padding.
	nl := circuit.New()
	nl.AddR("R1", "p1", "mid", circuit.V(10))
	nl.AddR("R2", "mid", "p2", circuit.V(20))
	nl.AddC("C1", "mid", "0", circuit.V(1e-12))
	nl.MarkPort("p1")
	nl.MarkPort("p2")
	sys, err := circuit.AssembleVariational(nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetPortConductance([]float64{1e-3, 1e-3}); err != nil {
		t.Fatal(err)
	}
	rom, err := Reduce(sys.GNominal(), sys.CNominal(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rom.Q() != 3 { // 2 ports + 1 internal (Krylov space saturates)
		t.Fatalf("Q = %d, want 3", rom.Q())
	}
	s := complex(0, 2*math.Pi*1e8)
	zFull, err := PortImpedance(sys.GNominal(), sys.CNominal(), 2, s)
	if err != nil {
		t.Fatal(err)
	}
	zRom, err := rom.ROMImpedance(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(zRom.At(i, j)-zFull.At(i, j)) > 1e-6*cmplx.Abs(zFull.At(i, i)) {
				t.Fatalf("exact-order reduction must reproduce Z at (%d,%d)", i, j)
			}
		}
	}
}

func TestVariationalSensitivitiesSymmetric(t *testing.T) {
	// dGr = dTᵀG0T0 + T0ᵀdG T0 + T0ᵀG0 dT is symmetric when G0 and dG
	// are (congruence-derivative structure).
	sys := ladderSystem(t, 15, 1e-3, true)
	vr, err := BuildVariational(sys, BuildOptions{Order: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*mat.Dense{vr.DGr["p"], vr.DCr["p"]} {
		if !m.IsSymmetric(1e-9 * (1 + m.MaxAbs())) {
			t.Fatal("variational sensitivity lost symmetry")
		}
	}
}

func TestVariationalDeltaInsensitivity(t *testing.T) {
	// The characterized library should not depend strongly on the
	// finite-difference delta (first-order object).
	sys := ladderSystem(t, 15, 1e-3, true)
	a, err := BuildVariational(sys, BuildOptions{Order: 3, Delta: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildVariational(sys, BuildOptions{Order: 3, Delta: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	w := map[string]float64{"p": 0.05}
	s := complex(0, 2*math.Pi*1e8)
	za, err := a.At(w).ROMImpedance(s)
	if err != nil {
		t.Fatal(err)
	}
	zb, err := b.At(w).ROMImpedance(s)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(za.At(0, 0)-zb.At(0, 0)) > 0.01*cmplx.Abs(za.At(0, 0)) {
		t.Fatalf("library depends on delta: %v vs %v", za.At(0, 0), zb.At(0, 0))
	}
}
