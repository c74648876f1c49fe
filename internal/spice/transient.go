package spice

import (
	"fmt"
	"math"

	"lcsim/internal/circuit"
	"lcsim/internal/sparse"
)

// transState carries the integration state through a run.
type transState struct {
	v    []float64 // current solution
	capV []float64 // per-capacitor branch voltage
	capI []float64 // per-capacitor branch current (trapezoidal memory)
	macV [][]float64
	macI [][]float64
}

// Run executes the transient analysis, probing the named nodes. With
// Options.Adaptive the timestep is controlled by a local-truncation-error
// estimate (predictor/corrector comparison), as general-purpose SPICE
// implementations do; otherwise the step is fixed at Options.DT, and
// Options.SettleNodes may end the run before TStop.
func (s *Simulator) Run(probes []string) (*Result, error) {
	if err := s.buildStatic(); err != nil {
		return nil, err
	}
	probeIdx, err := s.nodeIndices(probes)
	if err != nil {
		return nil, err
	}
	settleIdx, err := s.nodeIndices(s.opts.SettleNodes)
	if err != nil {
		return nil, err
	}

	v0, dcIter, err := s.dcOperatingPoint()
	if err != nil {
		return nil, err
	}

	s.stats = Stats{}
	res := &Result{V: map[string][]float64{}, DCIter: dcIter}
	record := func(t float64, v []float64) {
		res.T = append(res.T, t)
		for i, p := range probes {
			res.V[p] = append(res.V[p], v[probeIdx[i]])
		}
	}

	st := &transState{v: v0}
	st.capV = make([]float64, len(s.caps))
	st.capI = make([]float64, len(s.caps))
	for k, c := range s.caps {
		st.capV[k] = vAt(st.v, c.a) - vAt(st.v, c.b)
	}
	st.macV = make([][]float64, len(s.macros))
	st.macI = make([][]float64, len(s.macros))
	for mi, m := range s.macros {
		q := m.Gr.Rows()
		st.macV[mi] = make([]float64, q)
		st.macI[mi] = make([]float64, q)
		for k := 0; k < q; k++ {
			st.macV[mi][k] = st.v[s.macIndex(mi, k)]
		}
	}
	record(0, st.v)

	if !s.opts.Adaptive {
		var settle *circuit.Settle
		var settleV []float64
		if len(settleIdx) > 0 {
			settle = new(circuit.Settle)
			settleV = make([]float64, len(settleIdx))
			settle.Reset(s.opts.Models.VDD, gather(settleV, st.v, settleIdx), s.sourceWaveforms())
		}
		dt := s.opts.DT
		nSteps := int(s.opts.TStop/dt + 0.5)
		for step := 1; step <= nSteps; step++ {
			t := float64(step) * dt
			trap := step > 1
			vNew, err := s.stepOnce(st, t, dt, trap)
			if err != nil {
				res.Stats = s.stats
				return res, fmt.Errorf("at t=%.4g: %w", t, err)
			}
			s.commitStep(st, vNew, dt, trap)
			record(t, st.v)
			s.stats.Steps = step
			if settle != nil && settle.Done(t, gather(settleV, st.v, settleIdx)) {
				break
			}
		}
		res.Stats = s.stats
		return res, nil
	}

	// Adaptive stepping: compare the corrector solution against a linear
	// predictor built from the last two accepted points; reject and halve
	// on large deviation, grow gently when comfortably below tolerance.
	tol := s.opts.LTETol
	dtMin, dtMax := s.opts.DTMin, s.opts.DTMax
	t := 0.0
	dt := s.opts.DT
	first := true
	var vPrev []float64
	dtPrev := dt
	for t < s.opts.TStop-1e-21 {
		if dt > s.opts.TStop-t {
			dt = s.opts.TStop - t
		}
		vNew, err := s.stepOnce(st, t+dt, dt, !first)
		if err != nil {
			if dt > dtMin*1.001 {
				dt = math.Max(dt/4, dtMin)
				continue // retry smaller without committing
			}
			res.Stats = s.stats
			return res, fmt.Errorf("at t=%.4g (dt=%.3g): %w", t+dt, dt, err)
		}
		grow := false
		if !first && vPrev != nil {
			errEst := 0.0
			for i := 0; i < s.nNode; i++ {
				pred := st.v[i] + (st.v[i]-vPrev[i])*dt/dtPrev
				if e := math.Abs(vNew[i] - pred); e > errEst {
					errEst = e
				}
			}
			if errEst > tol && dt > dtMin*1.001 {
				dt = math.Max(dt/2, dtMin)
				continue // reject
			}
			grow = errEst < tol/16
		}
		vPrev = append(vPrev[:0], st.v...)
		dtPrev = dt
		s.commitStep(st, vNew, dt, !first)
		t += dt
		first = false
		record(t, st.v)
		s.stats.Steps++
		if grow && dt < dtMax {
			dt = math.Min(dt*1.5, dtMax)
		}
	}
	res.Stats = s.stats
	return res, nil
}

// nodeIndices resolves node names to MNA indices.
func (s *Simulator) nodeIndices(names []string) ([]int, error) {
	idx := make([]int, len(names))
	for i, name := range names {
		id := s.nl.Node(name)
		if id < 0 {
			return nil, fmt.Errorf("spice: cannot probe ground")
		}
		idx[i] = int(id)
	}
	return idx, nil
}

// gather copies v at the indices idx into dst and returns it.
func gather(dst, v []float64, idx []int) []float64 {
	for i, k := range idx {
		dst[i] = v[k]
	}
	return dst
}

// sourceWaveforms lists the waveforms of every independent source, the
// inputs the settle rule waits on.
func (s *Simulator) sourceWaveforms() []circuit.Waveform {
	var ws []circuit.Waveform
	for _, v := range s.nl.VSources {
		ws = append(ws, v.W)
	}
	for _, i := range s.nl.ISources {
		ws = append(ws, i.W)
	}
	return ws
}

func vAt(v []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return v[i]
}

// stepOnce assembles and solves one candidate timestep ending at time t
// with step dt (trapezoidal when trap, else backward Euler). It does not
// mutate the integration state.
func (s *Simulator) stepOnce(st *transState, t, dt float64, trap bool) ([]float64, error) {
	base := s.static.Clone()
	rhs := make([]float64, s.dim)
	for _, src := range s.nl.ISources {
		iv := src.W.At(t)
		if src.A >= 0 {
			rhs[int(src.A)] -= iv
		}
		if src.B >= 0 {
			rhs[int(src.B)] += iv
		}
	}
	for i, src := range s.nl.VSources {
		rhs[s.nNode+i] = src.W.At(t)
	}
	for k, c := range s.caps {
		if c.c == 0 {
			continue
		}
		var geq, ieq float64
		if trap {
			geq = 2 * c.c / dt
			ieq = geq*st.capV[k] + st.capI[k]
		} else {
			geq = c.c / dt
			ieq = geq * st.capV[k]
		}
		stampG(base, c.a, c.b, geq)
		if c.a >= 0 {
			rhs[c.a] += ieq
		}
		if c.b >= 0 {
			rhs[c.b] -= ieq
		}
	}
	for mi, m := range s.macros {
		q := m.Cr.Rows()
		scale := 1.0 / dt
		if trap {
			scale = 2.0 / dt
		}
		for i := 0; i < q; i++ {
			gi := s.macIndex(mi, i)
			ieq := 0.0
			for j := 0; j < q; j++ {
				crv := m.Cr.At(i, j)
				if crv == 0 {
					continue
				}
				geq := scale * crv
				base.Add(gi, s.macIndex(mi, j), geq)
				ieq += geq * st.macV[mi][j]
			}
			if trap {
				ieq += st.macI[mi][i]
			}
			rhs[gi] += ieq
		}
	}
	return s.newtonSolve(base, rhs, st.v, t, maxNewton)
}

// commitStep folds an accepted solution into the integration state.
func (s *Simulator) commitStep(st *transState, vNew []float64, dt float64, trap bool) {
	for k, c := range s.caps {
		if c.c == 0 {
			continue
		}
		vNow := vAt(vNew, c.a) - vAt(vNew, c.b)
		if trap {
			st.capI[k] = (2*c.c/dt)*(vNow-st.capV[k]) - st.capI[k]
		} else {
			st.capI[k] = (c.c / dt) * (vNow - st.capV[k])
		}
		st.capV[k] = vNow
	}
	for mi, m := range s.macros {
		q := m.Cr.Rows()
		scale := 1.0 / dt
		if trap {
			scale = 2.0 / dt
		}
		for i := 0; i < q; i++ {
			sum := 0.0
			for j := 0; j < q; j++ {
				sum += scale * m.Cr.At(i, j) * (vNew[s.macIndex(mi, j)] - st.macV[mi][j])
			}
			if trap {
				sum -= st.macI[mi][i]
			}
			st.macI[mi][i] = sum
		}
		for k := 0; k < q; k++ {
			st.macV[mi][k] = vNew[s.macIndex(mi, k)]
		}
	}
	st.v = vNew
}

// newtonSolve iterates the linearized MNA system to convergence starting
// from guess v0, for at most maxIter iterations. base/rhsBase hold all
// stamps except the nonlinear devices.
func (s *Simulator) newtonSolve(base *sparse.Triplet, rhsBase, v0 []float64, t float64, maxIter int) ([]float64, error) {
	v := make([]float64, s.dim)
	copy(v, v0)
	rhs := make([]float64, s.dim)
	for it := 0; it < maxIter; it++ {
		tr := base.Clone()
		copy(rhs, rhsBase)
		s.stampMOSFETs(tr, rhs, v)
		lu, err := sparse.FactorLU(tr.Compile(), 0.1)
		s.statsLU()
		if err != nil {
			return nil, fmt.Errorf("%w: singular matrix", ErrNoConvergence)
		}
		vNew := lu.Solve(rhs)
		s.statsNewton()
		// Damped update: limit the per-iteration node-voltage change, the
		// standard robustness device for high-gain (deep logic) circuits.
		for i := 0; i < s.nNode; i++ {
			if d := vNew[i] - v[i]; d > dvLimit {
				vNew[i] = v[i] + dvLimit
			} else if d < -dvLimit {
				vNew[i] = v[i] - dvLimit
			}
		}
		conv := true
		for i := 0; i < s.nNode; i++ {
			if math.IsNaN(vNew[i]) || math.Abs(vNew[i]) > vMax {
				return nil, fmt.Errorf("%w: node voltage diverged (|v|=%.3g)", ErrNoConvergence, vNew[i])
			}
			if math.Abs(vNew[i]-v[i]) > absTol+relTol*math.Abs(vNew[i]) {
				conv = false
			}
		}
		if conv && (it > 0 || len(s.mos) == 0) {
			return vNew, nil
		}
		v = vNew
	}
	return nil, ErrNoConvergence
}

// stampMOSFETs linearizes every transistor at voltages v and stamps the
// companion (Norton) models.
func (s *Simulator) stampMOSFETs(tr *sparse.Triplet, rhs []float64, v []float64) {
	at := func(i int) float64 {
		if i < 0 {
			return 0
		}
		return v[i]
	}
	for _, m := range s.mos {
		op := evalMOS(m, at(m.d), at(m.g), at(m.s), at(m.b))
		gm, gds, gmb := op.Gm, op.Gds, op.Gmb
		gss := -(gm + gds + gmb)
		// Current into drain: I = ID0 + gm·Δvg + gds·Δvd + gmb·Δvb + gss·Δvs.
		ieq := op.ID - gm*at(m.g) - gds*at(m.d) - gmb*at(m.b) - gss*at(m.s)
		stamp4 := func(row int, sign float64) {
			if row < 0 {
				return
			}
			add := func(col int, g float64) {
				if col >= 0 && g != 0 {
					tr.Add(row, col, sign*g)
				}
			}
			add(m.g, gm)
			add(m.d, gds)
			add(m.b, gmb)
			add(m.s, gss)
			rhs[row] -= sign * ieq
		}
		stamp4(m.d, +1) // current leaves the drain node into the device
		stamp4(m.s, -1) // and returns at the source
	}
}

func (s *Simulator) statsLU()     { s.stats.LUFactorizations++ }
func (s *Simulator) statsNewton() { s.stats.NewtonIterations++ }
