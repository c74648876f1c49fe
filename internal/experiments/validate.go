package experiments

import (
	"context"
	"fmt"
	"math"

	"lcsim/internal/core"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// Example2Evaluator builds a per-sample delay evaluator for one named
// stage-evaluation backend on the Example-2 (Figure 4) coupled stage:
// the victim far-end 50% falling delay relative to the victim input's
// 50% crossing. The engine names follow the core registry (teta-fast,
// teta-exact, teta-direct, spice-golden); "" selects teta-fast. The
// returned evaluator is safe for concurrent use.
func Example2Evaluator(o Ex2Options, lengthUm float64, engine string) (func(rs teta.RunSpec) (float64, error), error) {
	o.setDefaults()
	var run func(st *teta.Stage, rs teta.RunSpec) (*teta.Result, error)
	switch core.ResolveEngine(engine) {
	case core.EngineTetaFast:
		run = func(st *teta.Stage, rs teta.RunSpec) (*teta.Result, error) { return st.Run(rs) }
	case core.EngineTetaExact:
		run = func(st *teta.Stage, rs teta.RunSpec) (*teta.Result, error) { return st.RunExact(rs) }
	case core.EngineTetaDirect:
		run = func(st *teta.Stage, rs teta.RunSpec) (*teta.Result, error) { return st.RunDirect(rs) }
	case core.EngineSpiceGolden:
		h, err := ex2SpiceHarness(o, lengthUm)
		if err != nil {
			return nil, err
		}
		return func(rs teta.RunSpec) (float64, error) {
			ins := rs.Inputs
			if ins == nil {
				ins = ex2Inputs(o)
			}
			wf, _, err := h.Eval(rs.W, rs.DL, rs.DVT, ins)
			if err != nil {
				return 0, err
			}
			cross := wf.CrossTime(o.Tech.VDD/2, -1)
			if math.IsNaN(cross) {
				return 0, fmt.Errorf("experiments: spice probe did not cross 50%%")
			}
			return cross - 0.30e-9, nil
		}, nil
	default:
		return nil, fmt.Errorf("experiments: no Example-2 evaluator for engine %q (want teta-fast, teta-exact, teta-direct or spice-golden)", engine)
	}
	st, err := ex2Stage(o, lengthUm)
	if err != nil {
		return nil, err
	}
	return func(rs teta.RunSpec) (float64, error) {
		res, err := run(st, rs)
		if err != nil {
			return 0, err
		}
		return ex2Delay(o, res)
	}, nil
}

// EngineValidation is one engine's column of a cross-engine validation:
// the delay statistics it produces on a shared sample set plus its
// deviation from the reference (first) engine.
type EngineValidation struct {
	Engine  string
	Summary stat.Summary
	// Delays holds the per-sample delays, aligned across engines by
	// sample index. Under the skip policy a skipped sample leaves a NaN
	// hole, so the alignment survives engines skipping different samples.
	Delays []float64
	// Skipped counts this engine's skipped samples (NaN holes in Delays).
	Skipped int
	// MeanDeltaPct/StdDeltaPct/MaxAbsDelta compare against the reference
	// engine (zero for the reference itself): signed mean and σ deviation
	// in percent, and the largest per-sample |Δdelay| in seconds.
	MeanDeltaPct float64
	StdDeltaPct  float64
	MaxAbsDelta  float64
}

// ValidateExample2 runs the same Example-2 sample set through each named
// engine and reports per-engine statistics plus deltas against the first
// (reference) engine — the cross-backend consistency check behind
// `lcsim validate`. Sample i is identical across engines, so the
// per-sample deltas isolate pure backend disagreement. Each engine's
// samples run through core.Sweep (fail-fast or skip policy, the
// SampleTimeout watchdog, cancellation by ctx).
func ValidateExample2(ctx context.Context, o Ex2Options, lengthUm float64, engines []string) ([]EngineValidation, error) {
	o.setDefaults()
	if len(engines) == 0 {
		return nil, fmt.Errorf("experiments: validation needs at least one engine")
	}
	switch o.OnFailure {
	case core.FailFast, core.Skip:
	default:
		return nil, fmt.Errorf("experiments: validation supports the fail-fast and skip policies, not %s (the Example-2 evaluators have no degradation ladder)", o.OnFailure)
	}
	specs := ex2SampleSpecs(o)
	out := make([]EngineValidation, len(engines))
	for ei, name := range engines {
		eval, err := Example2Evaluator(o, lengthUm, name)
		if err != nil {
			return nil, err
		}
		// Pre-fill with NaN: a skipped sample never reaches Deliver, so its
		// hole marks the index as undelivered for this engine.
		delays := make([]float64, len(specs))
		for i := range delays {
			delays[i] = math.NaN()
		}
		var failures core.FailureReport
		sw := &core.Sweep[float64]{
			Primary: core.Evaluator[float64]{
				Name: name,
				Eval: func(_ context.Context, i int, _ any) (float64, error) { return eval(specs[i]) },
			},
			Deliver:  func(i int, d float64) { delays[i] = d },
			Failures: &failures,
		}
		_, err = sw.Start(core.RunConfig{Workers: o.Workers, BatchSize: o.BatchSize, OnFailure: o.OnFailure, SampleTimeout: o.SampleTimeout})
		if err == nil {
			err = sw.Run(ctx, len(specs))
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: engine %s: %w", name, err)
		}
		out[ei] = EngineValidation{Engine: name, Summary: summarizeDelivered(delays), Delays: delays, Skipped: failures.Skipped}
	}
	FinishDeltas(out)
	return out, nil
}

// summarizeDelivered summarizes the delivered entries of an aligned
// delay slice, ignoring the NaN holes left by skipped samples.
func summarizeDelivered(delays []float64) stat.Summary {
	finite := make([]float64, 0, len(delays))
	for _, d := range delays {
		if !math.IsNaN(d) {
			finite = append(finite, d)
		}
	}
	return stat.Summarize(finite)
}

// FinishDeltas fills the delta columns of a validation set against its
// first (reference) column. A per-sample delta exists only where both
// engines delivered the sample — NaN holes on either side pair with
// nothing, so skip-policy runs still compare like with like.
func FinishDeltas(cols []EngineValidation) {
	ref := cols[0]
	for i := 1; i < len(cols); i++ {
		cols[i].MeanDeltaPct = 100 * (cols[i].Summary.Mean - ref.Summary.Mean) / ref.Summary.Mean
		cols[i].StdDeltaPct = 100 * (cols[i].Summary.Std - ref.Summary.Std) / ref.Summary.Std
		for k, d := range cols[i].Delays {
			if math.IsNaN(d) || math.IsNaN(ref.Delays[k]) {
				continue
			}
			if ad := math.Abs(d - ref.Delays[k]); ad > cols[i].MaxAbsDelta {
				cols[i].MaxAbsDelta = ad
			}
		}
	}
}
