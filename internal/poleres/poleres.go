// Package poleres converts reduced-order models to multiport pole/residue
// form (paper eqs. 13–20), applies the practical two-step stabilization —
// drop right-half-plane poles, rescale surviving residues by a common
// factor β to restore the DC behaviour (eqs. 21–23) — and evaluates the
// stabilized macromodel in the time domain by recursive convolution, the
// load representation TETA simulates against.
package poleres

import (
	"fmt"
	"math"
	"math/cmplx"

	"lcsim/internal/mat"
	"lcsim/internal/mor"
)

// Macromodel is a multiport impedance in pole/residue form:
//
//	Z(s) = D0 + Σ_k Res[k] / (s − Poles[k])
//
// Complex poles appear with their conjugates so Z(s̄) = conj(Z(s)) and
// time-domain responses are real. D0 collects the direct (resistive)
// modes with zero time constant.
type Macromodel struct {
	Np    int
	D0    *mat.Dense
	Poles []complex128
	Res   []*mat.CDense // Res[k] is Np×Np, aligned with Poles[k]
}

// Extract computes the pole/residue form of a reduced model: it
// eigendecomposes T = −Gr⁻¹Cr (eq. 16) and assembles residues from the
// eigenvector rows/columns (eqs. 19–20).
func Extract(rom *mor.ROM) (*Macromodel, error) {
	q := rom.Q()
	np := rom.Np
	grLU, err := mat.FactorLU(rom.Gr)
	if err != nil {
		return nil, fmt.Errorf("poleres: Gr is singular: %w", err)
	}
	// The columns of Gr⁻¹ are assembled by triangular solves against unit
	// vectors; the same pass yields ||Gr⁻¹||₁ for the condition check, so
	// no second factorization and no explicit q×q inverse are formed.
	grInvCols := mat.NewDense(q, q) // column j in row j (transposed storage)
	e := make([]float64, q)
	norm1Inv := 0.0
	for j := 0; j < q; j++ {
		e[j] = 1
		col := grInvCols.Row(j)
		grLU.SolveInto(col, e)
		e[j] = 0
		s := 0.0
		for _, v := range col {
			s += math.Abs(v)
		}
		if s > norm1Inv {
			norm1Inv = s
		}
	}
	if cond := mat.Norm1(rom.Gr) * norm1Inv; cond > 1e14 {
		return nil, fmt.Errorf("poleres: Gr is numerically singular (cond ≈ %.2g) — the load has no DC path to ground; fold a port conductance in before reduction", cond)
	}
	t := grLU.SolveMat(rom.Cr).Scale(-1) // T = −Gr⁻¹Cr
	ed, err := mat.EigenDecompose(t)
	if err != nil {
		return nil, fmt.Errorf("poleres: eigendecomposition of T failed: %w", err)
	}
	s := ed.Vectors
	sLU, err := mat.FactorCLU(s)
	if err != nil {
		return nil, fmt.Errorf("poleres: eigenvector matrix is singular (defective T): %w", err)
	}
	// ν = S⁻¹·Gr⁻¹ (eq. 19): columns of Gr⁻¹ solved through S.
	nu := mat.NewCDense(q, q)
	col := make([]complex128, q)
	for j := 0; j < q; j++ {
		gc := grInvCols.Row(j)
		for i := 0; i < q; i++ {
			col[i] = complex(gc[i], 0)
		}
		x := sLU.Solve(col)
		for i := 0; i < q; i++ {
			nu.Set(i, j, x[i])
		}
	}
	m := &Macromodel{Np: np, D0: mat.NewDense(np, np)}
	// Scale separating "zero" eigenvalues (pure resistive modes) from
	// dynamic ones.
	lamMax := 0.0
	for _, l := range ed.Values {
		if a := cmplx.Abs(l); a > lamMax {
			lamMax = a
		}
	}
	tiny := 1e-12 * lamMax
	for k := 0; k < q; k++ {
		lam := ed.Values[k]
		// Rank-one term μ_k ν_k: μ_ik = S[i,k], ν_kj = nu[k,j].
		if cmplx.Abs(lam) <= tiny {
			// 1/(1−sλ) → 1: contributes a constant (resistive) term.
			for i := 0; i < np; i++ {
				for j := 0; j < np; j++ {
					m.D0.Add(i, j, real(s.At(i, k)*nu.At(k, j)))
				}
			}
			continue
		}
		pole := 1 / lam
		res := mat.NewCDense(np, np)
		for i := 0; i < np; i++ {
			for j := 0; j < np; j++ {
				// μν/(1−sλ) = [−μν/λ]/(s − 1/λ).
				res.Set(i, j, -s.At(i, k)*nu.At(k, j)/lam)
			}
		}
		m.Poles = append(m.Poles, pole)
		m.Res = append(m.Res, res)
	}
	return m, nil
}

// Z evaluates the macromodel impedance at complex frequency s.
func (m *Macromodel) Z(s complex128) *mat.CDense {
	out := mat.NewCDense(m.Np, m.Np)
	for i := 0; i < m.Np; i++ {
		for j := 0; j < m.Np; j++ {
			out.Set(i, j, complex(m.D0.At(i, j), 0))
		}
	}
	for k, p := range m.Poles {
		f := 1 / (s - p)
		r := m.Res[k]
		for i := 0; i < m.Np; i++ {
			for j := 0; j < m.Np; j++ {
				out.Set(i, j, out.At(i, j)+r.At(i, j)*f)
			}
		}
	}
	return out
}

// DCZ returns Z(0) = D0 − Σ Res/Poles as a new real matrix (see
// DCZInto).
func (m *Macromodel) DCZ() *mat.Dense {
	out := mat.NewDense(m.Np, m.Np)
	m.DCZInto(out)
	return out
}

// DCZInto writes Z(0) = D0 − Σ Res/Poles into the Np×Np matrix dst
// without allocating; the imaginary parts cancel across conjugate pairs.
// It adds the real part of each pole's term in the order Z(0) sums them,
// so dst is bit-identical to real(Z(0)).
func (m *Macromodel) DCZInto(dst *mat.Dense) {
	dst.CopyFrom(m.D0)
	for k, p := range m.Poles {
		f := 1 / (0 - p)
		for i := 0; i < m.Np; i++ {
			z := dst.Row(i)
			for j, r := range m.Res[k].Row(i) {
				z[j] += real(r * f)
			}
		}
	}
}

// UnstablePoles returns the right-half-plane poles (Re > 0), the quantity
// tabulated in the paper's Table 3.
func (m *Macromodel) UnstablePoles() []complex128 {
	var out []complex128
	for _, p := range m.Poles {
		if real(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// IsStable reports whether all poles lie in the closed left half plane.
func (m *Macromodel) IsStable() bool { return len(m.UnstablePoles()) == 0 }

// Clone returns a deep copy of the macromodel.
func (m *Macromodel) Clone() *Macromodel {
	out := &Macromodel{Np: m.Np, D0: m.D0.Clone(), Poles: append([]complex128(nil), m.Poles...)}
	for _, r := range m.Res {
		out.Res = append(out.Res, r.Clone())
	}
	return out
}

// StabReport describes what a stabilization did.
type StabReport struct {
	Removed     []complex128 // dropped unstable poles
	BetaMin     float64      // extremal β factors applied (1 when no correction)
	BetaMax     float64
	DCErrBefore float64 // max |ΔZ(0)| that dropping alone would have caused
}

// StabilizeShiftInPlace is StabilizeShift mutating the receiver: unstable
// poles are removed by compacting Poles/Res in place and their DC
// contribution is folded into D0, so filtering a model held in reusable
// evaluation scratch generates no garbage.
func (m *Macromodel) StabilizeShiftInPlace() StabReport {
	rep := StabReport{BetaMin: 1, BetaMax: 1}
	keep := 0
	for k, p := range m.Poles {
		if real(p) > 0 {
			rep.Removed = append(rep.Removed, p)
			r := m.Res[k]
			for i := 0; i < m.Np; i++ {
				row := r.Row(i)
				d0 := m.D0.Row(i)
				for j := 0; j < m.Np; j++ {
					shift := -row[j] / p
					d0[j] += real(shift)
					rep.DCErrBefore = max(rep.DCErrBefore, cmplx.Abs(shift))
				}
			}
			continue
		}
		m.Poles[keep] = p
		m.Res[keep] = m.Res[k]
		keep++
	}
	m.Poles = m.Poles[:keep]
	m.Res = m.Res[:keep]
	return rep
}

// StabilizeInPlace applies the paper's two-step correction (eqs. 22–23)
// to the receiver: remove poles with positive real part, then scale each
// surviving residue entry by the common factor β_ij of eq. (23) so
// Z_ij(0) is preserved.
func (m *Macromodel) StabilizeInPlace() StabReport {
	rep := StabReport{BetaMin: 1, BetaMax: 1}
	unstable := false
	for _, p := range m.Poles {
		if real(p) > 0 {
			unstable = true
			break
		}
	}
	if !unstable {
		return rep
	}
	// β_ij computed from the full pole set before filtering (eq. 23),
	// then applied to the surviving residues.
	for i := 0; i < m.Np; i++ {
		for j := 0; j < m.Np; j++ {
			all := complex(0, 0)
			stable := complex(0, 0)
			for k, p := range m.Poles {
				t := m.Res[k].At(i, j) / p
				all += t
				if real(p) <= 0 {
					stable += t
				}
			}
			rep.DCErrBefore = math.Max(rep.DCErrBefore, cmplx.Abs(all-stable))
			if cmplx.Abs(stable) == 0 {
				continue
			}
			beta := real(all / stable)
			if beta < rep.BetaMin {
				rep.BetaMin = beta
			}
			if beta > rep.BetaMax {
				rep.BetaMax = beta
			}
			for k, p := range m.Poles {
				if real(p) <= 0 {
					m.Res[k].Set(i, j, m.Res[k].At(i, j)*complex(beta, 0))
				}
			}
		}
	}
	keep := 0
	for k, p := range m.Poles {
		if real(p) > 0 {
			rep.Removed = append(rep.Removed, p)
			continue
		}
		m.Poles[keep] = p
		m.Res[keep] = m.Res[k]
		keep++
	}
	m.Poles = m.Poles[:keep]
	m.Res = m.Res[:keep]
	return rep
}

// StabilizeShift removes right-half-plane poles and folds their DC
// contribution (−r/p) into the direct resistive term D0. Like the β
// correction it preserves Z(0) exactly, but it leaves the surviving poles'
// residues untouched, which behaves better when a removed mode carries a
// large share of the DC impedance (a very fast unstable junk mode acts as
// a resistor over the simulation band anyway). This is the engineering
// variant of the paper's eq. (22) heuristic; StabilizeInPlace implements
// the published β-scaling form.
func (m *Macromodel) StabilizeShift() (*Macromodel, StabReport) {
	out := m.Clone()
	rep := out.StabilizeShiftInPlace()
	return out, rep
}
