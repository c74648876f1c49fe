package poleres

import (
	"math"
	"math/cmplx"
	"testing"

	"lcsim/internal/mat"
)

// mixedModel has a conjugate unstable pair plus stable poles, to exercise
// the filters on complex spectra.
func mixedModel() *Macromodel {
	m := &Macromodel{Np: 2, D0: mat.NewDense(2, 2)}
	m.D0.Set(0, 0, 2)
	m.D0.Set(1, 1, 3)
	add := func(p complex128, r00, r01 complex128) {
		res := mat.NewCDense(2, 2)
		res.Set(0, 0, r00)
		res.Set(0, 1, r01)
		res.Set(1, 0, r01)
		res.Set(1, 1, r00)
		m.Poles = append(m.Poles, p)
		m.Res = append(m.Res, res)
	}
	add(complex(-1e9, 0), complex(-50e9, 0), complex(-5e9, 0))
	// Unstable conjugate pair.
	add(complex(1e11, 2e11), complex(1e9, 5e8), complex(2e8, 1e8))
	add(complex(1e11, -2e11), complex(1e9, -5e8), complex(2e8, -1e8))
	add(complex(-4e9, 0), complex(-80e9, 0), complex(-8e9, 0))
	return m
}

func TestStabilizeShiftPreservesDCMatrix(t *testing.T) {
	m := mixedModel()
	before := m.DCZ()
	st, rep := m.StabilizeShift()
	if len(rep.Removed) != 2 {
		t.Fatalf("removed %d poles, want the conjugate pair", len(rep.Removed))
	}
	if !st.IsStable() {
		t.Fatal("still unstable")
	}
	after := st.DCZ()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(before.At(i, j)-after.At(i, j)) > 1e-9*math.Abs(before.At(i, j)) {
				t.Fatalf("DC changed at (%d,%d): %g vs %g", i, j, before.At(i, j), after.At(i, j))
			}
		}
	}
	// Surviving residues untouched (unlike the β variant).
	if st.Res[0].At(0, 0) != m.Res[0].At(0, 0) {
		t.Fatal("shift variant must not rescale surviving residues")
	}
}

func TestStabilizeBetaPreservesDCMatrix(t *testing.T) {
	m := mixedModel()
	before := m.DCZ()
	st := m.Clone()
	st.StabilizeInPlace()
	after := st.DCZ()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(before.At(i, j)-after.At(i, j)) > 1e-6*(1+math.Abs(before.At(i, j))) {
				t.Fatalf("β variant DC changed at (%d,%d): %g vs %g", i, j, before.At(i, j), after.At(i, j))
			}
		}
	}
}

func TestStabilizeShiftKeepsConjugateSymmetry(t *testing.T) {
	m := mixedModel()
	st, _ := m.StabilizeShift()
	s := complex(3e8, 7e9)
	z1 := st.Z(s)
	z2 := st.Z(cmplx.Conj(s))
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(z1.At(i, j)-cmplx.Conj(z2.At(i, j))) > 1e-9*(1+cmplx.Abs(z1.At(i, j))) {
				t.Fatalf("conjugate symmetry broken at (%d,%d)", i, j)
			}
		}
	}
	// D0 must stay real-valued by construction (it is a *mat.Dense), and
	// the shifted contribution of the conjugate pair must cancel any
	// imaginary part: check Z at a real frequency is conjugate-symmetric
	// already covered; additionally Z(0) must be real.
	z0 := st.Z(0)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(imag(z0.At(i, j))) > 1e-9 {
				t.Fatalf("Z(0) not real at (%d,%d): %v", i, j, z0.At(i, j))
			}
		}
	}
}

func TestStabilizeShiftNoopOnStable(t *testing.T) {
	rom, _ := ladderROM(t, 8, 3)
	m, err := Extract(rom)
	if err != nil {
		t.Fatal(err)
	}
	st, rep := m.StabilizeShift()
	if len(rep.Removed) != 0 || len(st.Poles) != len(m.Poles) {
		t.Fatal("stable model must pass through")
	}
	for i := 0; i < m.Np; i++ {
		for j := 0; j < m.Np; j++ {
			if st.D0.At(i, j) != m.D0.At(i, j) {
				t.Fatal("D0 must be unchanged")
			}
		}
	}
}

func TestStabilizeVariantsAgreeAtDC(t *testing.T) {
	m := mixedModel()
	beta := m.Clone()
	beta.StabilizeInPlace()
	shift, _ := m.StabilizeShift()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(beta.DCZ().At(i, j)-shift.DCZ().At(i, j)) > 1e-6*(1+math.Abs(shift.DCZ().At(i, j))) {
				t.Fatalf("variants disagree at DC (%d,%d)", i, j)
			}
		}
	}
}

func TestMacromodelZAdditivity(t *testing.T) {
	// Z(s) evaluated pole-by-pole must match the builtin evaluation.
	m := mixedModel()
	s := complex(1e8, -4e9)
	want := m.Z(s)
	acc := mat.NewCDense(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			acc.Set(i, j, complex(m.D0.At(i, j), 0))
		}
	}
	for k, p := range m.Poles {
		f := 1 / (s - p)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				acc.Set(i, j, acc.At(i, j)+m.Res[k].At(i, j)*f)
			}
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(acc.At(i, j)-want.At(i, j)) > 1e-12*(1+cmplx.Abs(want.At(i, j))) {
				t.Fatal("Z evaluation mismatch")
			}
		}
	}
}
