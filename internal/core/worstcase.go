package core

import (
	"fmt"
	"math"
)

// WorstCaseConfig configures the true-worst-case corner search (the
// follow-up analysis of Acar et al., ISQED 2001, which the paper cites as
// [3]): find the parameter corner inside the ±Kσ box that extremizes the
// path delay, using gradient information plus a verification simulation.
type WorstCaseConfig struct {
	Sources []Source
	K       float64 // box half-width in sigmas (default 3)
	// Minimize selects the fast corner when true; false, the default,
	// selects the slow corner.
	Minimize bool
	// Engine names the stage-evaluation backend for both the GA seed and
	// the corner verification simulations ("" resolves to teta-fast).
	Engine string
}

// worstCaseRefinements bounds the sign-refinement sweeps (a corner search
// over a monotone-ish response converges in one or two).
const worstCaseRefinements = 2

// WorstCaseResult is a verified extreme corner.
type WorstCaseResult struct {
	Delay       float64            // verified delay at the corner
	Nominal     float64            // nominal delay
	Corner      []float64          // per-source values, aligned with Sources
	CornerSigns map[string]float64 // +K/−K per source (in sigmas)
	Simulations int
}

// WorstCase finds the extreme delay corner. The initial corner comes from
// GA sensitivities (slow corner: sign(dD/dw)·Kσ); each refinement pass
// re-checks every source's sign by flipping it at the current corner and
// keeping the better corner — this corrects sources whose influence
// reverses away from nominal, which is exactly where pure linear
// worst-casing fails.
func (p *Path) WorstCase(cfg WorstCaseConfig) (*WorstCaseResult, error) {
	for _, s := range cfg.Sources {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("core: worst-case search needs at least one source")
	}
	k := cfg.K
	if k <= 0 {
		k = 3
	}
	sign := 1.0
	if cfg.Minimize {
		sign = -1
	}
	ga, err := p.GradientAnalysis(GAConfig{Sources: cfg.Sources, Engine: cfg.Engine})
	if err != nil {
		return nil, err
	}
	e, err := p.Engine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	sc := e.NewScratch() // the corner search is serial: one scratch suffices
	sims := ga.Simulations
	corner := make([]float64, len(cfg.Sources))
	for i, s := range cfg.Sources {
		dir := math.Copysign(1, ga.Sensitivity[s.Name]) * sign
		corner[i] = dir * k * s.Sigma
	}
	eval := func(c []float64) (float64, error) {
		sims++
		ev, err := e.EvalPath(sc, BuildRunSpec(cfg.Sources, c))
		if err != nil {
			return 0, err
		}
		return ev.Delay, nil
	}
	best, err := eval(corner)
	if err != nil {
		return nil, err
	}
	for r := 0; r < worstCaseRefinements; r++ {
		improved := false
		for i := range cfg.Sources {
			trial := make([]float64, len(corner))
			copy(trial, corner)
			trial[i] = -trial[i]
			d, err := eval(trial)
			if err != nil {
				return nil, err
			}
			if sign*(d-best) > 0 {
				best = d
				copy(corner, trial)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	res := &WorstCaseResult{
		Delay:       best,
		Nominal:     ga.Mean,
		Corner:      corner,
		CornerSigns: map[string]float64{},
		Simulations: sims,
	}
	for i, s := range cfg.Sources {
		res.CornerSigns[s.Name] = corner[i] / s.Sigma
	}
	return res, nil
}

// TimingYield estimates the probability that the path delay meets a cycle
// budget, from both statistical views (the timing-yield formulation of
// Gattiker et al., the paper's ref. [13]):
//
//   - GA: Φ((budget − mean)/σ) under the first-order normal model;
//   - MC: the empirical fraction of samples meeting the budget.
//
// The MC estimate carries its binomial sampling uncertainty: MCStdErr is
// sqrt(p(1−p)/n) and MCCIHalf the 95% half-width 1.96·MCStdErr, so
// callers comparing estimators (GA vs. MC vs. importance sampling) can
// ask "within CI?" instead of treating the point estimate as exact. Both
// are 0 when the MC side is absent or has no samples.
type TimingYield struct {
	Budget  float64
	GAYield float64
	MCYield float64
	// MCN is the MC sample count behind MCYield; MCStdErr/MCCIHalf its
	// binomial standard error and 95% CI half-width.
	MCN      int
	MCStdErr float64
	MCCIHalf float64
}

// Yield evaluates the timing yield at a delay budget given previously
// computed GA and MC results (either may be reused across budgets).
func Yield(budget float64, ga *GAResult, mc *MCResult) TimingYield {
	out := TimingYield{Budget: budget, GAYield: math.NaN(), MCYield: math.NaN()}
	if ga != nil {
		if ga.Std <= 0 {
			if budget >= ga.Mean {
				out.GAYield = 1
			} else {
				out.GAYield = 0
			}
		} else {
			z := (budget - ga.Mean) / ga.Std
			out.GAYield = 0.5 * math.Erfc(-z/math.Sqrt2)
		}
	}
	if mc != nil && len(mc.Delays) > 0 {
		pass := 0
		for _, d := range mc.Delays {
			if d <= budget {
				pass++
			}
		}
		n := len(mc.Delays)
		out.MCYield = float64(pass) / float64(n)
		out.MCN = n
		out.MCStdErr = math.Sqrt(out.MCYield * (1 - out.MCYield) / float64(n))
		out.MCCIHalf = 1.96 * out.MCStdErr
	}
	return out
}
