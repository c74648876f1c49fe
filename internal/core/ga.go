package core

import (
	"fmt"
	"math"

	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// GAConfig configures Gradient-Analysis path-delay statistics (§4.3.2).
type GAConfig struct {
	Sources []Source
	// Step is the finite-difference step as a fraction of each source's
	// sigma (default 0.5).
	Step float64
	// Metrics, when non-nil, accumulates evaluation-cost counters (stage
	// evaluations, SC iterations, linear solves) across the analysis.
	Metrics *runner.Metrics
	// Engine names the stage-evaluation backend ("" resolves to
	// teta-fast). See RegisterEngine and EngineNames.
	Engine string
}

// gaSlewStep is the relative perturbation of the input slew used for the
// ∂/∂S derivatives.
const gaSlewStep = 0.05

// GAResult holds the gradient-analysis outcome: the nominal path delay,
// the first-order standard deviation via eq. (24) and the per-source
// delay sensitivities (eq. 32).
type GAResult struct {
	Mean        float64
	Std         float64
	Sensitivity map[string]float64 // dD/dsource (natural units)
	StageCount  int
	Simulations int // stage simulations spent (the GA cost metric)
	// StageCumMean[i] is the cumulative mean delay through stage i, and
	// StageCumSens[i][l] the cumulative ∂D/∂w_l (same source order as
	// GAConfig.Sources) at that point. The last entries equal Mean and the
	// Sensitivity values. Block-level SSTA uses these to form suffix delay
	// models — a path entered at stage j has mean Mean−StageCumMean[j-1]
	// and sensitivities StageCumSens[last][l]−StageCumSens[j-1][l].
	StageCumMean []float64
	StageCumSens [][]float64
}

// stageDerivs holds the stage Γ-function linearization (eq. 30–31):
// output 50% crossing Π and slew Ψ as functions of input slew and each
// variation source. ∂Π/∂M = 1 and ∂Ψ/∂M = 0 exactly, by time invariance
// of the stage.
type stageDerivs struct {
	nom    StageDelayResult
	dPidS  float64
	dPsidS float64
	dPidW  []float64
	dPsidW []float64
}

// GradientAnalysis propagates nominal waveform parameters and their
// derivatives through the path (the "differential timing analysis" view
// of §4.3.2) and combines source sigmas via eq. (24).
func (p *Path) GradientAnalysis(cfg GAConfig) (*GAResult, error) {
	for _, s := range cfg.Sources {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	step := cfg.Step
	if step <= 0 {
		step = 0.5
	}
	nw := len(cfg.Sources)
	res := &GAResult{Sensitivity: map[string]float64{}, StageCount: len(p.Stages)}
	e, err := p.Engine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	sc := e.NewScratch() // the analysis is serial: one scratch suffices

	// Path state: nominal (M, S) plus dM/dw, dS/dw per source. M is
	// carried as accumulated delay relative to the stimulus 50% point.
	mTot := 0.0
	slew := p.InputSlew
	dM := make([]float64, nw)
	dS := make([]float64, nw)
	rising := true

	for i := range p.Stages {
		sd, err := p.stageDerivatives(e, sc, i, cfg.Sources, slew, rising, step, &res.Simulations, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		stageDelay := sd.nom.Cross50 - p.TStart
		mTot += stageDelay
		for l := 0; l < nw; l++ {
			// eq. (31): dM_out = ∂Π/∂w + 1·dM_in + ∂Π/∂S·dS_in.
			dMout := sd.dPidW[l] + dM[l] + sd.dPidS*dS[l]
			dSout := sd.dPsidW[l] + sd.dPsidS*dS[l]
			dM[l] = dMout
			dS[l] = dSout
		}
		slew = sd.nom.Slew
		rising = rising != p.Stages[i].Invert
		res.StageCumMean = append(res.StageCumMean, mTot)
		res.StageCumSens = append(res.StageCumSens, append([]float64(nil), dM...))
	}
	res.Mean = mTot
	// eq. (24): σ² = Σ σ_l² (∂D/∂w_l)².
	varAcc := 0.0
	for l, s := range cfg.Sources {
		res.Sensitivity[s.Name] = dM[l]
		varAcc += s.Sigma * s.Sigma * dM[l] * dM[l]
	}
	res.Std = math.Sqrt(varAcc)
	return res, nil
}

// stageDerivatives evaluates the stage Γ function and its derivatives by
// finite differences: nominal, slew perturbation (central), and a central
// difference per variation source.
func (p *Path) stageDerivatives(e Engine, sc any, i int, sources []Source, slew float64, rising bool, step float64, sims *int, m *runner.Metrics) (*stageDerivs, error) {
	// eval wraps the engine's stage evaluation with the simulation counter
	// and the shared metrics accumulators.
	eval := func(rs teta.RunSpec, s float64) (StageDelayResult, error) {
		r, _, err := e.EvalStage(sc, i, rs, p.stageRamp(s, rising), rising)
		if err != nil {
			return r, err
		}
		*sims++
		m.Add(runner.StageEvals, 1)
		m.Add(runner.SCIterations, int64(r.SCIters))
		m.Add(runner.LinearSolves, int64(r.Solves))
		return r, nil
	}
	nom, err := eval(teta.RunSpec{}, slew)
	if err != nil {
		return nil, fmt.Errorf("GA nominal: %w", err)
	}
	// Slew derivatives (central difference).
	ds := slew * gaSlewStep
	hi, err := eval(teta.RunSpec{}, slew+ds)
	if err != nil {
		return nil, fmt.Errorf("GA slew+: %w", err)
	}
	lo, err := eval(teta.RunSpec{}, slew-ds)
	if err != nil {
		return nil, fmt.Errorf("GA slew-: %w", err)
	}
	out := &stageDerivs{
		nom:    nom,
		dPidS:  (hi.Cross50 - lo.Cross50) / (2 * ds),
		dPsidS: (hi.Slew - lo.Slew) / (2 * ds),
		dPidW:  make([]float64, len(sources)),
		dPsidW: make([]float64, len(sources)),
	}
	for l, s := range sources {
		h := s.Sigma * step
		var rsp, rsm teta.RunSpec
		s.Apply(&rsp, h)
		s.Apply(&rsm, -h)
		ph, err := eval(rsp, slew)
		if err != nil {
			return nil, fmt.Errorf("GA %s+: %w", s.Name, err)
		}
		pl, err := eval(rsm, slew)
		if err != nil {
			return nil, fmt.Errorf("GA %s-: %w", s.Name, err)
		}
		out.dPidW[l] = (ph.Cross50 - pl.Cross50) / (2 * h)
		out.dPsidW[l] = (ph.Slew - pl.Slew) / (2 * h)
	}
	return out, nil
}
