package poleres

import (
	"math"
	"math/cmplx"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/mat"
	"lcsim/internal/mor"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// romRC returns the 2-state ROM of a simple series-RC one-port:
// port --R1-- x --C-- gnd, with extra shunt g0 at the port. The exact
// impedance is known analytically.
func ladderROM(t *testing.T, nSeg, order int) (*mor.ROM, *circuit.VarSystem) {
	t.Helper()
	nl := circuit.New()
	prev := "in"
	for k := 1; k <= nSeg; k++ {
		n := "n" + string(rune('a'+k))
		nl.AddR("R"+n, prev, n, circuit.V(100))
		nl.AddC("C"+n, n, "0", circuit.V(1e-13))
		prev = n
	}
	nl.MarkPort("in")
	sys, err := circuit.AssembleVariational(nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetPortConductance([]float64{1e-3}); err != nil {
		t.Fatal(err)
	}
	rom, err := mor.Reduce(sys.GNominal(), sys.CNominal(), 1, order)
	if err != nil {
		t.Fatal(err)
	}
	return rom, sys
}

func TestExtractMatchesROMImpedance(t *testing.T) {
	rom, _ := ladderROM(t, 10, 4)
	m, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, 1e6, 1e8, 1e9, 1e10} {
		s := complex(0, 2*math.Pi*f)
		zRom, err := rom.ROMImpedance(s)
		if err != nil {
			t.Fatal(err)
		}
		zPR := m.Z(s)
		d := cmplx.Abs(zPR.At(0, 0) - zRom.At(0, 0))
		if d > 1e-6*cmplx.Abs(zRom.At(0, 0)) {
			t.Fatalf("pole/residue Z differs from ROM at f=%g: %v vs %v", f, zPR.At(0, 0), zRom.At(0, 0))
		}
	}
}

func TestExtractStablePolesForRC(t *testing.T) {
	rom, _ := ladderROM(t, 12, 5)
	m, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsStable() {
		t.Fatalf("nominal RC reduction must be stable, got unstable poles %v", m.UnstablePoles())
	}
	for _, p := range m.Poles {
		if real(p) >= 0 {
			t.Fatalf("RC pole %v not in open left half plane", p)
		}
	}
	if len(m.Poles) == 0 {
		t.Fatal("expected at least one pole")
	}
}

func TestExtractConjugateSymmetry(t *testing.T) {
	rom, _ := ladderROM(t, 8, 4)
	m, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	// Z at conjugate frequencies must be conjugate (real impulse response).
	s := complex(1e7, 2e8)
	z1 := m.Z(s).At(0, 0)
	z2 := m.Z(cmplx.Conj(s)).At(0, 0)
	if cmplx.Abs(z1-cmplx.Conj(z2)) > 1e-9*cmplx.Abs(z1) {
		t.Fatalf("conjugate symmetry violated: %v vs %v", z1, z2)
	}
}

func TestDCZMatchesSchurComplement(t *testing.T) {
	rom, sys := ladderROM(t, 10, 3)
	m, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	zFull, err := mor.PortImpedance(sys.GNominal(), sys.CNominal(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.DCZ().At(0, 0), real(zFull.At(0, 0)), 1e-6*real(zFull.At(0, 0))) {
		t.Fatalf("DCZ = %g, want %g", m.DCZ().At(0, 0), real(zFull.At(0, 0)))
	}
}

// TestDCZIntoBitIdenticalToZ0: the allocation-free DC impedance (the
// DC start of every teta sample) must equal the real part of Z(0) bit
// for bit, conjugate pairs and reused destinations included.
func TestDCZIntoBitIdenticalToZ0(t *testing.T) {
	rom, _ := ladderROM(t, 10, 3)
	ladder, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Macromodel{"ladder": ladder, "mixed": mixedModel(), "unstable": unstableModel()} {
		dst := mat.NewDense(m.Np, m.Np)
		for i := 0; i < m.Np; i++ {
			for j := 0; j < m.Np; j++ {
				dst.Set(i, j, math.NaN()) // a stale destination must be overwritten
			}
		}
		m.DCZInto(dst)
		z := m.Z(0)
		for i := 0; i < m.Np; i++ {
			for j := 0; j < m.Np; j++ {
				if got, want := dst.At(i, j), real(z.At(i, j)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: DCZInto[%d][%d] = %v, real(Z(0)) = %v", name, i, j, got, want)
				}
			}
		}
	}
}

// unstableModel builds a synthetic macromodel with one unstable pole.
func unstableModel() *Macromodel {
	m := &Macromodel{Np: 1, D0: mat.NewDense(1, 1)}
	add := func(p complex128, r complex128) {
		res := mat.NewCDense(1, 1)
		res.Set(0, 0, r)
		m.Poles = append(m.Poles, p)
		m.Res = append(m.Res, res)
	}
	add(complex(-1e9, 0), complex(-100e9, 0)) // stable: contributes +100 at DC
	add(complex(-5e9, 0), complex(-250e9, 0)) // stable: contributes +50 at DC
	add(complex(+2e12, 0), complex(1e10, 0))  // unstable junk mode
	return m
}

func TestStabilizeRemovesUnstableAndPreservesDC(t *testing.T) {
	m := unstableModel()
	if m.IsStable() {
		t.Fatal("fixture must be unstable")
	}
	dcBefore := m.DCZ().At(0, 0)
	st := m.Clone()
	rep := st.StabilizeInPlace()
	if !st.IsStable() {
		t.Fatal("Stabilize left unstable poles")
	}
	if len(rep.Removed) != 1 || real(rep.Removed[0]) != 2e12 {
		t.Fatalf("Removed = %v", rep.Removed)
	}
	dcAfter := st.DCZ().At(0, 0)
	if !almostEq(dcAfter, dcBefore, 1e-9*math.Abs(dcBefore)) {
		t.Fatalf("β correction failed: DC %g -> %g", dcBefore, dcAfter)
	}
	if rep.BetaMin == 1 && rep.BetaMax == 1 {
		t.Fatal("β should differ from 1 when an unstable pole carried DC content")
	}
	// Original must be untouched.
	if m.IsStable() {
		t.Fatal("Stabilize must not mutate the receiver")
	}
}

func TestStabilizeNoopOnStable(t *testing.T) {
	rom, _ := ladderROM(t, 6, 3)
	m, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Clone()
	rep := st.StabilizeInPlace()
	if len(rep.Removed) != 0 {
		t.Fatal("stable model must not lose poles")
	}
	if len(st.Poles) != len(m.Poles) {
		t.Fatal("pole count changed")
	}
}

// newConvolver is a fresh Convolver configured for m at step h.
func newConvolver(m *Macromodel, h float64) (*Convolver, error) {
	c := new(Convolver)
	return c, c.Reconfigure(m, h)
}

func TestConvolverStepResponseMatchesAnalytic(t *testing.T) {
	// Single-pole model: Z(s) = r/(s-p) with p = -1/τ. Driven by constant
	// current I, v(t) = -r/p · I (1 - e^{pt}).
	p := complex(-1e9, 0)
	r := complex(1e12, 0) // DC resistance = -r/p = 1000 Ω
	m := &Macromodel{Np: 1, D0: mat.NewDense(1, 1)}
	res := mat.NewCDense(1, 1)
	res.Set(0, 0, r)
	m.Poles = []complex128{p}
	m.Res = []*mat.CDense{res}

	h := 1e-11
	cv, err := newConvolver(m, h)
	if err != nil {
		t.Fatal(err)
	}
	const I = 1e-3
	cv.SetInitialCurrent([]float64{I}) // true step, not first-interval ramp
	var v float64
	tEnd := 12e-9
	for tt := h; tt <= tEnd+h/2; tt += h {
		v = cv.Advance([]float64{I})[0]
		want := 1000 * I * (1 - math.Exp(real(p)*tt))
		if !almostEq(v, want, 1e-3*1000*I) {
			t.Fatalf("convolver at t=%g: %g, want %g", tt, v, want)
		}
	}
	// Steady state = IR.
	if !almostEq(v, 1.0, 1e-3) {
		t.Fatalf("steady state %g, want 1.0", v)
	}
}

func TestConvolverHistorySplit(t *testing.T) {
	// v = History + EffZ·i must equal Advance(i) for any i.
	rom, _ := ladderROM(t, 8, 4)
	m, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := newConvolver(m, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	// Establish some history.
	for k := 0; k < 10; k++ {
		cv.Advance([]float64{1e-3})
	}
	hist := make([]float64, 1)
	cv.HistoryInto(hist)
	zeff := cv.EffZView()
	i1 := []float64{-2e-3}
	want := hist[0] + zeff.At(0, 0)*i1[0]
	got := cv.Advance(i1)[0]
	if !almostEq(got, want, 1e-12+1e-9*math.Abs(want)) {
		t.Fatalf("history split violated: %g vs %g", got, want)
	}
}

func TestConvolverRejectsUnstable(t *testing.T) {
	if _, err := newConvolver(unstableModel(), 1e-12); err == nil {
		t.Fatal("convolver must reject unstable macromodels")
	}
}

func TestConvolverMatchesSpiceOnLadder(t *testing.T) {
	// Drive the reduced RC one-port with a current step through the
	// convolver and compare the port voltage against a direct transient
	// simulation of the full ladder with the same current source.
	nl := circuit.New()
	prev := "in"
	for k := 1; k <= 10; k++ {
		n := "n" + string(rune('a'+k))
		nl.AddR("R"+n, prev, n, circuit.V(100))
		nl.AddC("C"+n, n, "0", circuit.V(1e-13))
		prev = n
	}
	nl.MarkPort("in")
	sys, err := circuit.AssembleVariational(nl)
	if err != nil {
		t.Fatal(err)
	}
	// A port shunt keeps G nonsingular (mimics the driver's G_out).
	gout := 1e-3
	if err := sys.SetPortConductance([]float64{gout}); err != nil {
		t.Fatal(err)
	}
	rom, err := mor.Reduce(sys.GNominal(), sys.CNominal(), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	h := 1e-12
	cv, err := newConvolver(m, h)
	if err != nil {
		t.Fatal(err)
	}
	// Reference via internal/spice with the same gout resistor.
	// (imported indirectly through an RC analytic check instead: the DC
	// value of the port voltage for a current step I is I·Z(0).)
	const I = 1e-3
	var v float64
	for tt := h; tt <= 2e-8; tt += h {
		v = cv.Advance([]float64{I})[0]
	}
	want := I * m.DCZ().At(0, 0)
	if !almostEq(v, want, 1e-3*math.Abs(want)) {
		t.Fatalf("ladder settles at %g, want %g", v, want)
	}
	// Z(0) for the shunted ladder is 1/gout in parallel with the
	// open-ended RC ladder (infinite DC resistance): exactly 1/gout.
	if !almostEq(m.DCZ().At(0, 0), 1/gout, 1e-6/gout) {
		t.Fatalf("DCZ = %g, want %g", m.DCZ().At(0, 0), 1/gout)
	}
}

func TestConvolverReset(t *testing.T) {
	rom, _ := ladderROM(t, 6, 3)
	m, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := newConvolver(m, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	first := cv.Advance([]float64{1e-3})[0]
	cv.Advance([]float64{1e-3})
	cv.Reset()
	again := cv.Advance([]float64{1e-3})[0]
	if !almostEq(first, again, 1e-15) {
		t.Fatal("Reset must restore initial state")
	}
}

func TestNewConvolverBadStep(t *testing.T) {
	rom, _ := ladderROM(t, 6, 3)
	m, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newConvolver(m, 0); err == nil {
		t.Fatal("zero step must error")
	}
}
