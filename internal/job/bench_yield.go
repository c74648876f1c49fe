package job

// This file measures the optional -yield section of BENCH_mc.json.

import (
	"context"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/runner"
)

// benchYield measures the importance-sampling yield row: the Example-2
// path (library cells driving the coupled variational interconnect at
// the bench wirelength, device and wire variations active) swept at a
// tail delay budget. The comparison is analytic on the MC side — the
// binomial sample count p(1−p)(1.96/ci)² that plain MC would need for
// the IS run's CI half-width — because actually running plain MC to a
// ppm-resolution CI costs ~10⁷ evaluations (the point of the IS
// driver is not having to).
func benchYield(ctx context.Context, env *Env, wire float64, samples int, sigma float64, workers int) (yieldBenchRow, error) {
	p, err := core.BuildChain(core.ChainSpec{
		Cells:        []string{"INV", "NAND2", "INV"},
		Drive:        2,
		ElemsBetween: 2 * int(wire),
		WireLengthUm: wire,
		Variational:  true,
		Tech:         device.Tech180,
		DT:           4e-12,
		TStop:        1.6e-9,
		Order:        4,
		MacroCache:   env.MacroCache,
	})
	if err != nil {
		return yieldBenchRow{}, err
	}
	sources := append(core.DeviceSources(device.Tech180, 0.33, 0.33), core.WireSources(0.33)...)
	res, err := p.ImportanceYieldCtx(ctx, core.ISConfig{
		N:           samples,
		Sources:     sources,
		BudgetSigma: sigma,
		RunConfig:   core.RunConfig{Seed: 1, Workers: workers, Metrics: &runner.Metrics{}},
	})
	if err != nil {
		return yieldBenchRow{}, err
	}
	return yieldBenchRow{
		BudgetSigma:   res.BudgetSigma,
		BudgetSec:     res.Budget,
		FailProb:      res.FailProb,
		CIHalf:        res.CIHalf,
		ESS:           res.ESS,
		FailESS:       res.FailESS,
		ISEvals:       res.EvalsTotal,
		MCEvalsForCI:  res.MCEvalsForCI,
		EvalReduction: res.EvalReduction,
		VarReduction:  res.VarReduction,
	}, nil
}
