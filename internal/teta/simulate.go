package teta

import (
	"fmt"
	"math"

	"lcsim/internal/circuit"
	"lcsim/internal/mat"
	"lcsim/internal/poleres"
)

// Scratch holds every reusable buffer one worker needs to evaluate
// samples: the macromodel evaluation buffer, the convolver (whose
// recurrence coefficients are memoized across samples with identical
// poles), the driver-side vectors of the SC loop, the settle-rule state
// and the DC Newton workspace. A Scratch must not be shared between
// concurrent runs; create one per worker with NewScratch and thread it
// through RunWith.
type Scratch struct {
	me *poleres.MacroEval
	cv *poleres.Convolver

	vp, iN, hist []float64

	// v holds each driver's voltage vector (Driver.newVoltages); unk and
	// vin are views of its unknowns and its inputs.
	v, unk, vin [][]float64
	states      []*driverState

	// Per-driver solve buffers: rhs, Norton solve scratch, internals rhs.
	bBuf, xBuf, biBuf [][]float64
	// internal holds each driver's DC internal-node Newton workspace, and
	// settleStalls counts the DC internal-node settles that ended at
	// dcSettleMax without converging.
	internal     []internalNewton
	settleStalls int

	// settle decides where the timestep loop ends.
	settle circuit.Settle

	// DC Newton workspace: residual, Norton slopes, perturbed port
	// voltages and currents, the update, and the Jacobian with its LU.
	r, dIdv, vpTry, iTry, dv []float64
	jac                      *mat.Dense
	lu                       *mat.LU
	// zdc is the sample's DC impedance Z(0) the Newton solves against.
	zdc *mat.Dense

	// res backs the Result returned by RunWith: the waveform arrays are
	// reused across samples, so a Result is valid only until the next run
	// with the same scratch (Run detaches a copy before returning a pooled
	// scratch).
	res Result
}

// NewScratch allocates an evaluation scratch sized for the stage. Every
// evaluation path runs on it; only the characterize-once path uses its
// macromodel evaluation buffer.
func (st *Stage) NewScratch() *Scratch {
	np := st.sys.Np
	vec := func() []float64 { return make([]float64, np) }
	sc := &Scratch{
		cv: new(poleres.Convolver),
		vp: vec(), iN: vec(), hist: vec(),
		r: vec(), dIdv: vec(), vpTry: vec(), iTry: vec(), dv: vec(),
		jac: mat.NewDense(np, np),
		lu:  mat.NewLU(np),
		zdc: mat.NewDense(np, np),
	}
	if st.varmac != nil {
		sc.me = st.varmac.NewEval()
	}
	for _, d := range st.drivers {
		v := d.newVoltages()
		sc.v = append(sc.v, v)
		sc.unk = append(sc.unk, v[:d.nUnk])
		sc.vin = append(sc.vin, v[d.nUnk:d.nUnk+d.nIn])
		sc.states = append(sc.states, d.newState(0, 0))
		sc.bBuf = append(sc.bBuf, make([]float64, d.nUnk))
		sc.xBuf = append(sc.xBuf, make([]float64, d.outIdx))
		sc.biBuf = append(sc.biBuf, make([]float64, d.outIdx))
		sc.internal = append(sc.internal, d.newInternalNewton())
	}
	return sc
}

// stabilize applies the configured stability filter (eqs. 21–23) to pr
// in place: the DC-shift variant by default, the paper's β residue
// scaling with UseBetaStab, and nothing with NoStab.
func (st *Stage) stabilize(pr *poleres.Macromodel) poleres.StabReport {
	switch {
	case st.cfg.NoStab:
		return poleres.StabReport{BetaMin: 1, BetaMax: 1}
	case st.cfg.UseBetaStab:
		return pr.StabilizeInPlace()
	default:
		return pr.StabilizeShiftInPlace()
	}
}

// simulate runs one sample's Successive-Chords transient against its
// pole/residue load pr, which it stabilizes in place: it reconfigures
// the scratch convolver, solves the DC start and runs the timestep loop,
// which allocates nothing. The loop ends at TStop or, earlier, after the
// step at which the settle rule (circuit.Settle) ends it over every
// port. The Result is backed by sc.
func (st *Stage) simulate(sc *Scratch, pr *poleres.Macromodel, rs RunSpec) (*Result, error) {
	rep := st.stabilize(pr)
	stats := RunStats{UnstablePoles: len(rep.Removed), BetaMin: rep.BetaMin, BetaMax: rep.BetaMax}
	if len(pr.Poles) == 0 && stats.UnstablePoles > 0 {
		return nil, fmt.Errorf("%w (%d poles removed at this sample)", poleres.ErrAllPolesUnstable, stats.UnstablePoles)
	}
	if err := sc.cv.Reconfigure(pr, st.cfg.DT); err != nil {
		return nil, err
	}
	np := st.sys.Np
	for di, d := range st.drivers {
		d.resetState(sc.states[di], rs.DL, rs.DVT)
		for k, w := range rs.Inputs[di] {
			sc.vin[di][k] = w.At(0)
		}
	}
	if err := st.dcInit(sc, pr); err != nil {
		return nil, err
	}
	sc.cv.InitDC(sc.iN)
	for di, d := range st.drivers {
		d.commit(sc.v[di], sc.states[di])
	}

	h := st.cfg.DT
	nSteps := int(st.cfg.TStop/h + 0.5)
	res := &sc.res
	res.Stats = RunStats{}
	if cap(res.T) < nSteps+1 {
		res.T = make([]float64, 0, nSteps+1)
	}
	res.T = res.T[:0]
	if len(res.PortV) != np {
		res.PortV = make([][]float64, np)
	}
	for p := range res.PortV {
		if cap(res.PortV[p]) < nSteps+1 {
			res.PortV[p] = make([]float64, 0, nSteps+1)
		}
		res.PortV[p] = res.PortV[p][:0]
	}
	record := func(t float64, v []float64) {
		res.T = append(res.T, t)
		for p := 0; p < np; p++ {
			res.PortV[p] = append(res.PortV[p], v[p])
		}
	}
	record(0, sc.vp)
	sc.settle.Reset(st.cfg.Tech.VDD, sc.vp, rs.Inputs...)

	zeff := sc.cv.EffZView()
	// Each SC iteration resolves the prefactored interconnect macromodel
	// once (the Zeff apply below) plus two prefactored triangular solves
	// per driver with internal unknowns (Norton extraction + internal
	// recovery); drivers reduced to a single output unknown add nothing.
	solvesPerIter := 1
	for _, d := range st.drivers {
		if d.nUnk > 1 {
			solvesPerIter += 2
		}
	}
	vp, iN, hist := sc.vp, sc.iN, sc.hist
	for step := 1; step <= nSteps; step++ {
		t := float64(step) * h
		// Each iteration starts from the committed state, which the
		// voltage vectors still hold.
		for di := range st.drivers {
			for k, w := range rs.Inputs[di] {
				sc.vin[di][k] = w.At(t)
			}
		}
		sc.cv.HistoryInto(hist)
		converged := false
		for it := 0; it < st.cfg.MaxSC; it++ {
			stats.SCIterations++
			stats.LinearSolves += solvesPerIter
			for di, d := range st.drivers {
				d.rhsInto(sc.bBuf[di], sc.v[di], false, sc.states[di])
				iN[d.Port] = d.nortonS(sc.bBuf[di], sc.xBuf[di], &d.tr)
			}
			delta := 0.0
			for p := 0; p < np; p++ {
				vNew := hist[p]
				zr := zeff.Row(p)
				for q, iq := range iN {
					vNew += zr[q] * iq
				}
				// max, unlike a > comparison, carries a NaN update on to
				// scDiverged.
				delta = max(delta, math.Abs(vNew-vp[p]))
				vp[p] = vNew
			}
			for di, d := range st.drivers {
				// bBuf still holds this iteration's right-hand side: nothing
				// it depends on (unk, inputs, committed state) has changed
				// since the Norton extraction above.
				d.internalsInto(sc.unk[di][:d.outIdx], sc.biBuf[di], sc.bBuf[di], vp[d.Port], &d.tr)
				sc.unk[di][d.outIdx] = vp[d.Port]
			}
			if delta < scTol && it > 0 {
				converged = true
				break
			}
			if scDiverged(delta) {
				return nil, fmt.Errorf("%w at t=%.4g", ErrSCDiverged, t)
			}
		}
		if !converged {
			return nil, fmt.Errorf("%w: t=%.4g", ErrNoConvergence, t)
		}
		sc.cv.AdvanceInto(nil, iN)
		for di, d := range st.drivers {
			d.commit(sc.v[di], sc.states[di])
		}
		record(t, vp)
		stats.Steps = step
		if sc.settle.Done(t, vp) {
			break
		}
	}
	res.Stats = stats
	return res, nil
}

// dcInit solves the t=0 quasi-static operating point for the sample
// whose pole/residue load is pr and whose driver states and t=0 inputs sc
// already holds, filling sc.zdc (Zdc = Z(0) of pr), sc.vp (port
// voltages), sc.iN (Norton currents) and sc.unk (driver unknowns).
// The DC load can be capacitively open (Z(0) large), where plain SC
// iteration stalls; a small Newton on the port residual
// r(vp) = vp − Zdc·I_N(vp) is robust and only runs once per sample. The
// load carries the *transient* chord conductance G_out (it includes the
// C/h companions, as the paper notes G_out depends on the timestep
// resolution); at DC the driver supplies no capacitive current, so the
// current into the effective load is the DC Norton source plus the
// conductance difference times the port voltage.
func (st *Stage) dcInit(sc *Scratch, pr *poleres.Macromodel) error {
	pr.DCZInto(sc.zdc)
	vp, unk := sc.vp, sc.unk
	dcOK := false
	// A primed DC solution whose t=0 inputs match this sample exactly is
	// the best possible start: the sample's operating point differs only
	// through its parameter deviations, so Newton typically converges in a
	// couple of iterations. The warm start is a pure function of
	// (stage, sample), keeping results independent of worker scheduling;
	// on failure the standard start sequence runs unchanged.
	if w := st.warm; w != nil && vinEqual(w.vin0, sc.vin) {
		copy(vp, w.vp)
		for di := range unk {
			copy(unk[di], w.unk[di])
		}
		dcOK = st.dcNewton(sc)
	}
	if !dcOK {
		// Multiple starting points: digital driver outputs sit near a
		// rail, so if the iteration limit-cycles from one start it almost
		// always converges from another.
		for _, start := range []float64{0, st.cfg.Tech.VDD, 0.5 * st.cfg.Tech.VDD, 0.25 * st.cfg.Tech.VDD, 0.75 * st.cfg.Tech.VDD} {
			for p := range vp {
				vp[p] = start
			}
			for di := range st.drivers {
				for k := range unk[di] {
					unk[di][k] = start
				}
			}
			if st.dcNewton(sc) {
				dcOK = true
				break
			}
		}
	}
	if !dcOK {
		return ErrDCNewtonFailed
	}
	// Settle internals at the final port voltages.
	for di, d := range st.drivers {
		u := unk[di]
		u[d.outIdx] = vp[d.Port]
		d.rhsInto(sc.bBuf[di], sc.v[di], true, sc.states[di])
		d.internalsInto(u[:d.outIdx], sc.biBuf[di], sc.bBuf[di], vp[d.Port], &d.dc)
	}
	return nil
}

// dcNewton runs the damped Newton iteration from the current sc.vp and
// sc.unk contents and reports whether the port residual converged.
func (st *Stage) dcNewton(sc *Scratch) bool {
	np := len(sc.vp)
	vp, iN, r, zdc := sc.vp, sc.iN, sc.r, sc.zdc
	for it := 0; it < 100; it++ {
		st.dcNorton(sc, iN, vp)
		resid := 0.0
		for p := 0; p < np; p++ {
			zin := 0.0
			for q, z := range zdc.Row(p) {
				zin += z * iN[q]
			}
			r[p] = vp[p] - zin
			resid = max(resid, math.Abs(r[p]))
		}
		if resid < scTol {
			return true
		}
		// Jacobian J = I − Zdc·diag(dI_N/dv) by finite difference.
		const fd = 1e-4
		for p := 0; p < np; p++ {
			copy(sc.vpTry, vp)
			sc.vpTry[p] += fd
			st.dcNorton(sc, sc.iTry, sc.vpTry)
			sc.dIdv[p] = (sc.iTry[p] - iN[p]) / fd
		}
		j := sc.jac
		j.Zero()
		for p := 0; p < np; p++ {
			j.Set(p, p, 1)
		}
		for p := 0; p < np; p++ {
			for q := 0; q < np; q++ {
				j.Add(p, q, -zdc.At(p, q)*sc.dIdv[q])
			}
		}
		if err := sc.lu.Refactor(j); err != nil {
			return false
		}
		dv := sc.lu.SolveInto(sc.dv, r)
		// Damp the update: near cutoff the port residual can have a
		// near-zero slope and a full Newton step overshoots far outside
		// the supply range.
		clamp := 0.4 * st.cfg.Tech.VDD
		for p := 0; p < np; p++ {
			vp[p] -= min(max(dv[p], -clamp), clamp)
		}
	}
	return false
}

// dcNorton evaluates the DC Norton current every driver injects at port
// voltages vpTry into dst, settling each driver's internal nodes (in
// sc.unk) first so the current is a well-defined function of the port
// voltage (one chord pass is not idempotent for stacked drivers).
func (st *Stage) dcNorton(sc *Scratch, dst, vpTry []float64) {
	for p := range dst {
		dst[p] = 0
	}
	for di, d := range st.drivers {
		v, b, x := sc.v[di], sc.bBuf[di], sc.xBuf[di]
		v[d.outIdx] = vpTry[d.Port]
		if d.outIdx > 0 && !d.settleInternals(v, b, x, sc.biBuf[di], &sc.internal[di], sc.states[di]) {
			sc.settleStalls++
		}
		d.rhsInto(b, v, true, sc.states[di])
		dst[d.Port] = d.nortonS(b, x, &d.dc) + (d.tr.gOut-d.dc.gOut)*vpTry[d.Port]
	}
}

// vinEqual reports exact equality of two per-driver input-voltage sets.
func vinEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}
