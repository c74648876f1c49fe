package poleres

import (
	"errors"
	"fmt"
	"math/cmplx"

	"lcsim/internal/mat"
	"lcsim/internal/mor"
)

// ErrSingularGr reports that the evaluated conductance matrix Gr(w) of a
// sample is singular, so the exact per-sample DC correction (and any DC
// solve downstream) is impossible at that sample. It is a per-sample
// fault, not a characterization failure: statistical runs classify it
// (core.ClassSingularGr) and can skip or degrade instead of aborting.
var ErrSingularGr = errors.New("poleres: Gr(w) is singular at this sample")

// ErrAllPolesUnstable reports that the stability filter removed every
// pole of a sample's macromodel: the remaining purely-static model cannot
// represent the transient, so the sample must be treated as failed
// rather than silently simulated with a DC-only load.
var ErrAllPolesUnstable = errors.New("poleres: stabilization removed every pole")

// VarMacromodel is a pole/residue macromodel characterized once per stage
// together with its first-order sensitivities to every global parameter of
// the variational ROM library. Where Extract pays a dense LU, an explicit
// eigendecomposition and a complex LU for EVERY statistical sample, the
// variational macromodel pays them once per stage and evaluates each
// sample as an O(q·np²) affine update of the nominal poles, residues and
// direct term:
//
//	p_k(w)  = p_k⁰ + Σ_v w_v·dp_k
//	R_k(w)  = R_k⁰ + Σ_v w_v·dR_k
//	D0(w)   = D0⁰  + Σ_v w_v·dD0
//
// The sensitivities follow from first-order eigenvalue/eigenvector
// perturbation theory on T = −Gr⁻¹Cr: with right eigenvectors xₖ (columns
// of S) and left eigenvectors yₖᵀ (rows of S⁻¹, so yₖᵀxₖ = 1 holds by
// construction),
//
//	dλ_k = yₖᵀ·dT·xₖ                       (diagonal of B = S⁻¹·dT·S)
//	dxₖ  = Σ_{j≠k} B[j,k]/(λ_k−λ_j) · xⱼ   (dS = S·C, C[j,k] = B[j,k]/(λ_k−λ_j))
//
// The paper's stabilization is still applied per sample on the perturbed
// poles (by the stage evaluation loop), preserving the stability and
// DC-accuracy contract of eqs. 21–23.
type VarMacromodel struct {
	Np     int
	Params []string

	// Nominal is the exact nominal extraction with stabilization NOT yet
	// applied: the per-sample path stabilizes after evaluating the
	// perturbed model, exactly like the per-sample extraction path does.
	Nominal *Macromodel

	// First-order sensitivities per parameter, aligned with Nominal.
	DPoles map[string][]complex128
	DRes   map[string][]*mat.CDense
	DD0    map[string]*mat.Dense

	// gr0/dgr reference the library's conductance matrices for the exact
	// per-sample DC correction (see EvalInto): interconnect impedance
	// matrices hide delicate DC cancellations (coupling entries that are
	// exactly zero arise as differences of large pole/residue terms), and
	// first-order residues break them by O(δ²) — an absolute error that the
	// driver currents then amplify. Re-solving Z(0) = Gr(w)⁻¹|ports exactly
	// per sample costs one small LU and removes the entire flat offset.
	gr0 *mat.Dense
	dgr map[string]*mat.Dense
}

// eigGapFloor is the minimum relative eigenvalue separation below which
// the first-order eigenvector correction (which divides by λ_k − λ_j) is
// numerically meaningless. ExtractVar fails below it and callers fall
// back to per-sample extraction.
const eigGapFloor = 1e-8

// mixCap bounds the first-order eigenvector rotation angle |B[j,k]|/|λ_k−λ_j|
// (per unit parameter) that ExtractVar will represent. Above it the pair is
// quasi-degenerate for this parameter: the 1/gap factor amplifies the
// truncation error instead of the signal, so the mixing term is dropped.
// This is the complementary regime — when the gap is that small relative
// to the perturbation, the cluster's poles nearly coincide and rotating
// residues within it barely moves the transfer function, so omitting the
// rotation is the accurate choice (quasi-degenerate perturbation theory).
const mixCap = 0.5

// ExtractVar characterizes the variational pole/residue macromodel from a
// variational ROM library: one nominal extraction plus one O(q³) linear
// pass per parameter. Returns an error when the nominal spectrum is too
// close to degenerate for perturbation theory; callers should then keep
// using per-sample Extract.
func ExtractVar(vrom *mor.VarROM) (*VarMacromodel, error) {
	gr0, cr0 := vrom.Gr0, vrom.Cr0
	np := vrom.Np
	q := gr0.Rows()
	grLU, err := mat.FactorLU(gr0)
	if err != nil {
		return nil, fmt.Errorf("poleres: nominal Gr is singular: %w", err)
	}
	if cond := mat.Norm1(gr0) * grLU.Norm1Inverse(); cond > 1e14 {
		return nil, fmt.Errorf("poleres: nominal Gr is numerically singular (cond ≈ %.2g)", cond)
	}
	grInv := grLU.Inverse()           // characterization-time only; samples never invert
	t := grLU.SolveMat(cr0).Scale(-1) // T = −Gr⁻¹Cr
	ed, err := mat.EigenDecompose(t)
	if err != nil {
		return nil, fmt.Errorf("poleres: eigendecomposition of nominal T failed: %w", err)
	}
	s := ed.Vectors
	sInv, err := ed.LeftVectors()
	if err != nil {
		return nil, fmt.Errorf("poleres: %w", err)
	}
	lam := ed.Values
	lamMax := 0.0
	for _, l := range lam {
		if a := cmplx.Abs(l); a > lamMax {
			lamMax = a
		}
	}
	if lamMax == 0 {
		return nil, fmt.Errorf("poleres: nominal T has an all-zero spectrum")
	}
	gapTol := eigGapFloor * lamMax
	for k := 0; k < q; k++ {
		for j := k + 1; j < q; j++ {
			if lam[k] != lam[j] && cmplx.Abs(lam[k]-lam[j]) < gapTol {
				return nil, fmt.Errorf("poleres: near-degenerate eigenvalues λ%d, λ%d (gap %.3g < %.3g); first-order perturbation is invalid — use per-sample extraction", k, j, cmplx.Abs(lam[k]-lam[j]), gapTol)
			}
		}
	}
	// ν = S⁻¹·Gr⁻¹ (eq. 19).
	nu := cMulReal(sInv, grInv)
	// Nominal model, remembering which eigenmode produced each retained
	// pole so the sensitivity slices stay aligned with Nominal.Poles.
	tiny := 1e-12 * lamMax
	nom := &Macromodel{Np: np, D0: mat.NewDense(np, np)}
	var dynModes, zeroModes []int
	for k := 0; k < q; k++ {
		if cmplx.Abs(lam[k]) <= tiny {
			zeroModes = append(zeroModes, k)
			for i := 0; i < np; i++ {
				for j := 0; j < np; j++ {
					nom.D0.Add(i, j, real(s.At(i, k)*nu.At(k, j)))
				}
			}
			continue
		}
		dynModes = append(dynModes, k)
		nom.Poles = append(nom.Poles, 1/lam[k])
		res := mat.NewCDense(np, np)
		for i := 0; i < np; i++ {
			for j := 0; j < np; j++ {
				res.Set(i, j, -s.At(i, k)*nu.At(k, j)/lam[k])
			}
		}
		nom.Res = append(nom.Res, res)
	}

	vm := &VarMacromodel{
		Np:      np,
		Params:  append([]string(nil), vrom.Params...),
		Nominal: nom,
		DPoles:  map[string][]complex128{},
		DRes:    map[string][]*mat.CDense{},
		DD0:     map[string]*mat.Dense{},
		gr0:     gr0,
		dgr:     vrom.DGr,
	}
	for _, prm := range vm.Params {
		dgr, dcr := vrom.DGr[prm], vrom.DCr[prm]
		// dT = −Gr⁻¹·(dGr·T + dCr).
		dt := grLU.SolveMat(mat.Mul(dgr, t).AddScaled(1, dcr)).Scale(-1)
		// B = S⁻¹·dT·S; dλ_k = B[k,k]; C[j,k] = B[j,k]/(λ_k−λ_j).
		b := cMulC(cMulReal(sInv, dt), s)
		cMat := mat.NewCDense(q, q)
		for k := 0; k < q; k++ {
			for j := 0; j < q; j++ {
				if j == k || lam[k] == lam[j] {
					continue // exactly repeated eigenvalue: no first-order mixing
				}
				gap := lam[k] - lam[j]
				bjk := b.At(j, k)
				if cmplx.Abs(bjk) > mixCap*cmplx.Abs(gap) {
					continue // quasi-degenerate pair for this parameter
				}
				cMat.Set(j, k, bjk/gap)
			}
		}
		// dS = S·C and dν = −C·ν − ν·(dGr·Gr⁻¹).
		ds := cMulC(s, cMat)
		dnu := mat.NewCDense(q, q).
			AddScaled(-1, cMulC(cMat, nu)).
			AddScaled(-1, cMulReal(nu, mat.Mul(dgr, grInv)))
		dpoles := make([]complex128, 0, len(dynModes))
		dres := make([]*mat.CDense, 0, len(dynModes))
		for mi, k := range dynModes {
			l := lam[k]
			// The second member of a conjugate pair is forced to be the
			// exact conjugate of the first, so evaluated samples keep
			// exactly conjugate pole pairs — the convolver's pair detection
			// and the realness of v(t) depend on it.
			if mi > 0 && imag(l) != 0 && lam[dynModes[mi-1]] == cmplx.Conj(l) {
				dpoles = append(dpoles, cmplx.Conj(dpoles[mi-1]))
				prev := dres[mi-1]
				dr := mat.NewCDense(np, np)
				for i := 0; i < np; i++ {
					pr, or := prev.Row(i), dr.Row(i)
					for j := range pr {
						or[j] = cmplx.Conj(pr[j])
					}
				}
				dres = append(dres, dr)
				continue
			}
			dl := b.At(k, k)
			// p = 1/λ  →  dp = −dλ/λ².
			dpoles = append(dpoles, -dl/(l*l))
			// R = −S[:,k]·ν[k,:]/λ  →
			// dR = −(dS[:,k]·ν[k,:] + S[:,k]·dν[k,:])/λ + S[:,k]·ν[k,:]·dλ/λ².
			dr := mat.NewCDense(np, np)
			for i := 0; i < np; i++ {
				for j := 0; j < np; j++ {
					sv := s.At(i, k) * nu.At(k, j)
					dsv := ds.At(i, k)*nu.At(k, j) + s.At(i, k)*dnu.At(k, j)
					dr.Set(i, j, -dsv/l+sv*dl/(l*l))
				}
			}
			dres = append(dres, dr)
		}
		dd0 := mat.NewDense(np, np)
		for _, k := range zeroModes {
			for i := 0; i < np; i++ {
				for j := 0; j < np; j++ {
					dd0.Add(i, j, real(ds.At(i, k)*nu.At(k, j)+s.At(i, k)*dnu.At(k, j)))
				}
			}
		}
		vm.DPoles[prm] = dpoles
		vm.DRes[prm] = dres
		vm.DD0[prm] = dd0
	}
	return vm, nil
}

// At evaluates the macromodel at a parameter sample into a freshly
// allocated Macromodel. Per-sample loops should hold a MacroEval and use
// EvalInto instead. A sample whose Gr(w) is singular returns
// ErrSingularGr (the DC correction is impossible there).
func (v *VarMacromodel) At(w map[string]float64) (*Macromodel, error) {
	mac, err := v.EvalInto(v.NewEval(), w)
	if err != nil {
		return nil, err
	}
	return mac.Clone(), nil
}

// MacroEval is a reusable per-worker evaluation buffer for a
// VarMacromodel. EvalInto overwrites it completely on every call, so a
// steady-state sample evaluation performs zero allocations.
type MacroEval struct {
	mac  Macromodel
	pool []*mat.CDense // one residue buffer per nominal pole, reused
	pbuf []complex128

	// DC-correction scratch: Gr(w), its LU workspace and solve vectors.
	grw  *mat.Dense
	lu   *mat.LU
	e, x []float64
}

// NewEval allocates an evaluation buffer sized for the model.
func (v *VarMacromodel) NewEval() *MacroEval {
	n := len(v.Nominal.Poles)
	q := v.gr0.Rows()
	me := &MacroEval{
		pool: make([]*mat.CDense, n),
		pbuf: make([]complex128, n),
		grw:  mat.NewDense(q, q),
		lu:   mat.NewLU(q),
		e:    make([]float64, q),
		x:    make([]float64, q),
	}
	for k := range me.pool {
		me.pool[k] = mat.NewCDense(v.Np, v.Np)
	}
	me.mac = Macromodel{
		Np:  v.Np,
		D0:  mat.NewDense(v.Np, v.Np),
		Res: make([]*mat.CDense, n),
	}
	return me
}

// EvalInto evaluates the macromodel at sample w into the reusable buffer
// and returns the contained model. The returned model is owned by me and
// overwritten by the next call; in-place stabilization of it is fine
// (the pole/residue buffers are re-copied from the nominal every time).
//
// A sample whose evaluated Gr(w) is singular returns ErrSingularGr: the
// exact DC correction cannot be applied there, and silently using the
// uncorrected first-order model would produce a subtly wrong delay.
// Callers must treat such a sample as failed (skip, degrade to exact
// extraction, or abort per their failure policy).
func (v *VarMacromodel) EvalInto(me *MacroEval, w map[string]float64) (*Macromodel, error) {
	n := len(v.Nominal.Poles)
	me.mac.D0.CopyFrom(v.Nominal.D0)
	copy(me.pbuf[:n], v.Nominal.Poles)
	for k := 0; k < n; k++ {
		me.pool[k].CopyFrom(v.Nominal.Res[k])
	}
	for _, prm := range v.Params {
		wv := w[prm]
		if wv == 0 {
			continue
		}
		me.mac.D0.AddScaled(wv, v.DD0[prm])
		dp := v.DPoles[prm]
		dr := v.DRes[prm]
		cwv := complex(wv, 0)
		for k := 0; k < n; k++ {
			me.pbuf[k] += cwv * dp[k]
			me.pool[k].AddScaled(cwv, dr[k])
		}
	}
	me.mac.Poles = me.pbuf[:n]
	me.mac.Res = me.mac.Res[:n]
	copy(me.mac.Res, me.pool)
	if err := v.fixDC(me, w); err != nil {
		return nil, err
	}
	return &me.mac, nil
}

// fixDC replaces the perturbed model's DC behavior with the exact
// Z(0) = Gr(w)⁻¹|ports of the evaluated library ROM, folding the
// difference into D0. First-order pole/residue truncation leaves a flat
// absolute offset on Z (worst on coupling entries whose exact DC value is
// a cancellation of large terms); one q×q refactorization per sample
// removes it entirely. A singular Gr(w) returns ErrSingularGr: the
// sample's model cannot be DC-corrected, and must not be used.
func (v *VarMacromodel) fixDC(me *MacroEval, w map[string]float64) error {
	me.grw.CopyFrom(v.gr0)
	for _, prm := range v.Params {
		if wv := w[prm]; wv != 0 {
			me.grw.AddScaled(wv, v.dgr[prm])
		}
	}
	if err := me.lu.Refactor(me.grw); err != nil {
		return fmt.Errorf("%w: %v", ErrSingularGr, err)
	}
	np := v.Np
	for j := 0; j < np; j++ {
		me.e[j] = 1
		me.lu.SolveInto(me.x, me.e)
		me.e[j] = 0
		for i := 0; i < np; i++ {
			// Model DC entry: D0 − Σ_k Re(R_k/p_k).
			model := me.mac.D0.At(i, j)
			for k, p := range me.mac.Poles {
				model -= real(me.mac.Res[k].At(i, j) / p)
			}
			me.mac.D0.Add(i, j, me.x[i]-model)
		}
	}
	return nil
}

// cMulReal returns a·b with a complex and b real.
func cMulReal(a *mat.CDense, b *mat.Dense) *mat.CDense {
	if a.Cols() != b.Rows() {
		panic(fmt.Sprintf("poleres: cMulReal inner dims %d != %d", a.Cols(), b.Rows()))
	}
	out := mat.NewCDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		ar, or := a.Row(i), out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				or[j] += av * complex(bv, 0)
			}
		}
	}
	return out
}

// cMulC returns a·b for two complex matrices.
func cMulC(a, b *mat.CDense) *mat.CDense {
	if a.Cols() != b.Rows() {
		panic(fmt.Sprintf("poleres: cMulC inner dims %d != %d", a.Cols(), b.Rows()))
	}
	out := mat.NewCDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		ar, or := a.Row(i), out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return out
}
