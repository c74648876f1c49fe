// Path statistics: statistical timing of a critical path — the paper's
// §4.3 methodology end to end. A seven-stage path through the cell
// library with interconnect between stages is analyzed under device
// (ΔL, ΔVT) and wire variations by both methods:
//
//   - Monte-Carlo: full stage-by-stage waveform propagation per sample;
//
//   - Gradient Analysis: nominal waveform plus sensitivity propagation
//     (eq. 24/31), a handful of simulations per stage.
//
//     go run ./examples/pathstats
package main

import (
	"context"
	"fmt"
	"log"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/runner"
	"lcsim/internal/stat"
)

func main() {
	tech := device.Tech180
	path, err := core.BuildChain(core.ChainSpec{
		Cells:        []string{"INV", "NAND2", "NOR2", "AOI21", "NAND3", "OAI21", "INV"},
		Drive:        2,
		ElemsBetween: 40,
		WireLengthUm: 20,
		Variational:  true,
		Tech:         tech,
		DT:           4e-12,
		TStop:        1.6e-9,
		Order:        4,
	})
	if err != nil {
		log.Fatal(err)
	}
	sources := append(core.DeviceSources(tech, 0.33, 0.33), core.WireSources(0.33)...)
	fmt.Printf("path: 7 stages, %d variation sources\n", len(sources))

	ga, err := path.GradientAnalysis(core.GAConfig{Sources: sources})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GA : mean %.2f ps, σ %.2f ps  (%d stage simulations)\n",
		ga.Mean*1e12, ga.Std*1e12, ga.Simulations)
	fmt.Println("     sensitivities (ps per source σ... natural units):")
	for _, s := range sources {
		fmt.Printf("       %-10s dD/dw = %+.4g, contribution σ = %.3f ps\n",
			s.Name, ga.Sensitivity[s.Name], abs(ga.Sensitivity[s.Name])*s.Sigma*1e12)
	}

	// Monte-Carlo on the parallel runtime: Workers -1 uses every core,
	// and the result is bit-identical to a serial run at the same seed.
	metrics := &runner.Metrics{}
	mc, err := path.MonteCarloCtx(context.Background(), core.MCConfig{
		N: 80, Sources: sources,
		Sampler: core.SamplerLHS, KeepSamples: true,
		RunConfig: core.RunConfig{Seed: 11, Workers: -1, Metrics: metrics},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MC : mean %.2f ps, σ %.2f ps  (%d path simulations, %d SC iterations total)\n",
		mc.Summary.Mean*1e12, mc.Summary.Std*1e12, mc.Summary.N, mc.TotalSC)
	fmt.Println(stat.NewHistogram(mc.Delays, 12).Render(40, func(v float64) string {
		return fmt.Sprintf("%8.1f ps", v*1e12)
	}))
	fmt.Printf("GA/MC σ ratio: %.2f (GA trusts a first-order model; MC is the reference)\n",
		ga.Std/mc.Summary.Std)
	// The kept per-sample rows give a second sensitivity screen at no
	// extra simulation cost: each source's rank correlation with the
	// delay, to read against GA's derivatives above.
	corr, err := mc.Correlations(sources)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("     rank correlation of each source with the delay:")
	for _, s := range sources {
		fmt.Printf("       %-10s %+.2f\n", s.Name, corr[s.Name])
	}
	cost := metrics.Snapshot()
	fmt.Printf("cost: %d stage evals, %d SC iterations, %d linear solves\n",
		cost.StageEvals, cost.SCIterations, cost.LinearSolves)

	// The same run without KeepSamples streams: exact moments + P² accumulators
	// replace the per-sample arrays, so N can scale to millions. The
	// streamed mean/σ match the materialized ones to ~1e-9 relative.
	stream, err := path.MonteCarloCtx(context.Background(), core.MCConfig{
		N: 80, Sources: sources, Sampler: core.SamplerLHS,
		RunConfig: core.RunConfig{Seed: 11, Workers: -1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming MC: mean %.2f ps, σ %.2f ps, median≈%.2f ps (no per-sample storage)\n",
		stream.Summary.Mean*1e12, stream.Summary.Std*1e12, stream.Summary.Median*1e12)

	// Every statistical driver dispatches through the core.Engine registry;
	// naming an engine re-runs the identical analysis on another backend
	// (per-sample exact extraction here; spice-golden would run the full
	// transistor-level Newton transient per sample).
	fmt.Printf("engines: %v\n", core.EngineNames())
	exact, err := path.MonteCarloCtx(context.Background(), core.MCConfig{
		N: 20, Sources: sources, Sampler: core.SamplerLHS,
		RunConfig: core.RunConfig{Seed: 11, Workers: -1, Engine: core.EngineTetaExact},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("teta-exact re-run (20 samples): mean %.2f ps (cross-engine consistency check)\n",
		exact.Summary.Mean*1e12)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
