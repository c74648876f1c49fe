package job

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/experiments"
)

func init() {
	Register(Driver{
		Name: "validate",
		Doc:  "cross-check stage-evaluation engines on a shared sample set",
		Run:  runValidateDriver,
	})
}

// ValidateParams parameterizes the cross-engine validation driver — the
// job-layer form of the classic `lcsim validate` flag set. Cells empty
// selects the Example-2 coupled-stage workload; non-empty switches to a
// BuildChain path through the core engine registry.
type ValidateParams struct {
	Engines []string `json:"engines"`
	Samples int      `json:"samples"`
	Wire    float64  `json:"wire"`
	Cells   string   `json:"cells,omitempty"`
	Elems   int      `json:"elems,omitempty"`
	Drive   float64  `json:"drive,omitempty"`
}

func runValidateDriver(ctx context.Context, spec *Spec, env *Env) (*Result, error) {
	var vp ValidateParams
	if err := decodeParams(spec, &vp); err != nil {
		return nil, err
	}
	onFailure, err := core.ParseFailurePolicy(spec.Run.OnFailure)
	if err != nil {
		return nil, err
	}
	var engines []string
	for _, e := range vp.Engines {
		if e = strings.TrimSpace(e); e != "" {
			engines = append(engines, e)
		}
	}
	if len(engines) < 2 {
		return nil, fmt.Errorf("validate needs at least two engines (registered: %v)", core.EngineNames())
	}
	var cols []experiments.EngineValidation
	if vp.Cells == "" {
		o := experiments.Ex2Options{
			Samples: vp.Samples, Seed: spec.Run.Seed,
			Workers: spec.Run.Workers, BatchSize: spec.Run.Batch, OnFailure: onFailure,
			SampleTimeout: time.Duration(spec.Run.SampleTimeout),
			MacroCache:    env.MacroCache,
		}
		res, err := experiments.ValidateExample2(ctx, o, vp.Wire, engines)
		if err != nil {
			return nil, err
		}
		cols = res
		env.printf("validate: example-2 coupled stage, %g um, %d samples\n", vp.Wire, vp.Samples)
	} else {
		rc, err := spec.Run.runConfig("", env)
		if err != nil {
			return nil, err
		}
		rc.Progress = nil // per-engine sweeps share one sample set; progress would interleave
		cols, err = validateChain(ctx, env, vp.Cells, vp.Elems, vp.Wire, vp.Drive, vp.Samples, engines, rc)
		if err != nil {
			return nil, err
		}
		env.printf("validate: chain %s, %g um wires, %d samples\n", vp.Cells, vp.Wire, vp.Samples)
	}
	env.printf("%-14s %-11s %-10s %-9s %-9s %s\n", "engine", "mean(ps)", "sigma(ps)", "dmean%", "dsigma%", "max|d|(ps)")
	for i, c := range cols {
		if i == 0 {
			env.printf("%-14s %-11.3f %-10.4f %-9s %-9s %s\n",
				c.Engine, c.Summary.Mean*1e12, c.Summary.Std*1e12, "ref", "ref", "ref")
			continue
		}
		env.printf("%-14s %-11.3f %-10.4f %-+9.3f %-+9.3f %.4f\n",
			c.Engine, c.Summary.Mean*1e12, c.Summary.Std*1e12,
			c.MeanDeltaPct, c.StdDeltaPct, c.MaxAbsDelta*1e12)
	}
	for _, c := range cols {
		if c.Skipped > 0 {
			env.printf("note: %s skipped %d/%d samples; per-sample deltas pair only mutually-delivered samples\n",
				c.Engine, c.Skipped, vp.Samples)
		}
	}
	return &Result{Summary: cols}, nil
}

// validateChain runs the same Monte-Carlo sample set through each named
// engine on a BuildChain path and folds the results into the shared
// validation-column shape. The execution policy rc (seed, worker count,
// batch size, failure policy) is identical per engine — only the Engine
// name changes — so per-sample delays align; under the skip policy each
// engine's compacted delay list is re-expanded to its original indices
// with NaN holes first, because different engines may skip different
// samples.
func validateChain(ctx context.Context, env *Env, cells string, elems int, wireUm, drive float64, n int, engines []string, rc core.RunConfig) ([]experiments.EngineValidation, error) {
	var names []string
	for _, c := range strings.Split(cells, ",") {
		names = append(names, strings.ToUpper(strings.TrimSpace(c)))
	}
	p, err := core.BuildChain(core.ChainSpec{
		Cells: names, Drive: drive,
		ElemsBetween: elems, WireLengthUm: wireUm,
		Variational: true, Tech: device.Tech180,
		DT: 4e-12, TStop: 1.6e-9, Order: 4,
		MacroCache: env.MacroCache,
	})
	if err != nil {
		return nil, err
	}
	sources := append(core.DeviceSources(device.Tech180, 0.33, 0.33), core.WireSources(0.33)...)
	cols := make([]experiments.EngineValidation, len(engines))
	for ei, name := range engines {
		erc := rc
		erc.Engine = name
		mc, err := p.MonteCarloCtx(ctx, core.MCConfig{
			N: n, Sources: sources, KeepSamples: true,
			RunConfig: erc,
		})
		if err != nil {
			return nil, err
		}
		cols[ei] = experiments.EngineValidation{
			Engine:  name,
			Summary: mc.Summary,
			Delays:  expandSkipped(mc.Delays, mc.Failures.SkippedIndices, n),
			Skipped: mc.Failures.Skipped,
		}
	}
	experiments.FinishDeltas(cols)
	return cols, nil
}

// expandSkipped re-aligns a compacted per-sample slice to its original
// sample indices, leaving NaN at the skipped positions. With no skips
// it returns the compact slice unchanged.
func expandSkipped(compact []float64, skipped []int, n int) []float64 {
	if len(skipped) == 0 {
		return compact
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	skip := make(map[int]bool, len(skipped))
	for _, i := range skipped {
		skip[i] = true
	}
	k := 0
	for i := 0; i < n && k < len(compact); i++ {
		if !skip[i] {
			out[i] = compact[k]
			k++
		}
	}
	return out
}
