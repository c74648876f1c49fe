package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"lcsim/internal/device"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// quickChain builds a short path fast enough for unit tests.
func quickChain(t *testing.T, cells []string, elems int, variational bool) *Path {
	t.Helper()
	p, err := BuildChain(ChainSpec{
		Cells:        cells,
		Drive:        2,
		ElemsBetween: elems,
		WireLengthUm: 60,
		Variational:  variational,
		Tech:         device.Tech180,
		DT:           4e-12,
		TStop:        1.6e-9,
		Order:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildChainValidation(t *testing.T) {
	if _, err := BuildChain(ChainSpec{}); err == nil {
		t.Fatal("missing tech must error")
	}
	if _, err := BuildChain(ChainSpec{Tech: device.Tech180}); err == nil {
		t.Fatal("empty chain must error")
	}
	if _, err := BuildChain(ChainSpec{Tech: device.Tech180, Cells: []string{"NOPE"}, DT: 1e-12, TStop: 1e-9}); err == nil {
		t.Fatal("unknown cell must error")
	}
}

func TestEvaluateNominalChain(t *testing.T) {
	p := quickChain(t, []string{"INV", "NAND2", "INV"}, 10, false)
	ev, err := p.Evaluate(teta.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.StageDelays) != 3 {
		t.Fatalf("stage delays: %v", ev.StageDelays)
	}
	for i, d := range ev.StageDelays {
		if d <= 0 || d > 1e-9 {
			t.Fatalf("stage %d delay %g implausible", i, d)
		}
	}
	if !almostEq(ev.Delay, ev.StageDelays[0]+ev.StageDelays[1]+ev.StageDelays[2], 1e-15) {
		t.Fatal("total delay must be the sum of stage delays")
	}
	if ev.FinalSlew <= 0 {
		t.Fatal("final slew must be positive")
	}
}

func TestEvaluateMonotoneInDVT(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	base, err := p.Evaluate(teta.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := p.Evaluate(teta.RunSpec{DVT: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Delay <= base.Delay {
		t.Fatalf("VT up must slow the path: %g vs %g", slow.Delay, base.Delay)
	}
	fast, err := p.Evaluate(teta.RunSpec{DL: 0.01e-6})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Delay >= base.Delay {
		t.Fatalf("channel shortening must speed the path: %g vs %g", fast.Delay, base.Delay)
	}
}

func TestMonteCarloBasics(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	res, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N:         12,
		Sources:   DeviceSources(device.Tech180, 0.33, 0.33),
		RunConfig: RunConfig{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N != 12 {
		t.Fatalf("N = %d", res.Summary.N)
	}
	if res.Summary.Std <= 0 {
		t.Fatal("device variations must spread the delay")
	}
	if res.Summary.Mean <= 0 {
		t.Fatal("mean delay must be positive")
	}
	// Coefficient of variation should be modest (a few percent).
	if res.Summary.Std/res.Summary.Mean > 0.3 {
		t.Fatalf("CV implausibly large: %g", res.Summary.Std/res.Summary.Mean)
	}
}

func TestMonteCarloDeterministicSeeding(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	src := DeviceSources(device.Tech180, 0.33, 0)
	a, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 6, Sources: src, KeepSamples: true, RunConfig: RunConfig{Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 6, Sources: src, KeepSamples: true, RunConfig: RunConfig{Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Delays {
		if a.Delays[i] != b.Delays[i] {
			t.Fatal("same seed must reproduce the sample")
		}
	}
}

func TestMonteCarloParallelMatchesSequential(t *testing.T) {
	p := quickChain(t, []string{"INV", "NOR2"}, 10, false)
	src := DeviceSources(device.Tech180, 0.33, 0.33)
	seq, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 8, Sources: src, KeepSamples: true, RunConfig: RunConfig{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 8, Sources: src, KeepSamples: true, RunConfig: RunConfig{Seed: 5, Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Delays {
		if !almostEq(seq.Delays[i], par.Delays[i], 1e-15) {
			t.Fatalf("parallel MC differs at %d: %g vs %g", i, par.Delays[i], seq.Delays[i])
		}
	}
}

func TestMonteCarloWithWireVariations(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 20, true)
	res, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N:         10,
		Sources:   UniformWireSources(),
		RunConfig: RunConfig{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Std <= 0 {
		t.Fatal("wire variations must spread the delay")
	}
}

func TestGradientAnalysisAgainstMC(t *testing.T) {
	// For a short path with mild variations, GA's mean must equal the
	// nominal delay and its σ must be within ~40% of MC's (Table 5 shows
	// GA underestimates but stays the same order).
	p := quickChain(t, []string{"INV", "NAND2"}, 10, false)
	sources := DeviceSources(device.Tech180, 0.33, 0.33)
	ga, err := p.GradientAnalysis(GAConfig{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	nom, err := p.Evaluate(teta.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// GA propagates the ramp abstraction; Evaluate propagates the full
	// waveform — the means agree closely but not exactly.
	if !almostEq(ga.Mean, nom.Delay, 0.02*nom.Delay) {
		t.Fatalf("GA mean %g vs nominal delay %g", ga.Mean, nom.Delay)
	}
	mc, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 40, Sources: sources, RunConfig: RunConfig{Seed: 9, Workers: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if ga.Std <= 0 {
		t.Fatal("GA σ must be positive")
	}
	ratio := ga.Std / mc.Summary.Std
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("GA σ %g vs MC σ %g (ratio %g) out of plausible band", ga.Std, mc.Summary.Std, ratio)
	}
}

func TestGradientAnalysisSensitivities(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	sources := DeviceSources(device.Tech180, 0.33, 0.33)
	ga, err := p.GradientAnalysis(GAConfig{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	// Raising VT slows the path; shrinking L (positive DL) speeds it.
	if ga.Sensitivity["VT"] <= 0 {
		t.Fatalf("dD/dVT = %g, want > 0", ga.Sensitivity["VT"])
	}
	if ga.Sensitivity["DL"] >= 0 {
		t.Fatalf("dD/dDL = %g, want < 0", ga.Sensitivity["DL"])
	}
	// Simulation count: per stage 3 + 2 per source.
	want := 2 * (3 + 2*len(sources))
	if ga.Simulations != want {
		t.Fatalf("GA simulations = %d, want %d", ga.Simulations, want)
	}
}

func TestGAStageCumulativeArrays(t *testing.T) {
	p := quickChain(t, []string{"INV", "NAND2", "NOR2"}, 10, false)
	sources := DeviceSources(device.Tech180, 0.33, 0.33)
	ga, err := p.GradientAnalysis(GAConfig{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	if len(ga.StageCumMean) != len(p.Stages) || len(ga.StageCumSens) != len(p.Stages) {
		t.Fatalf("cumulative arrays cover %d/%d stages, want %d",
			len(ga.StageCumMean), len(ga.StageCumSens), len(p.Stages))
	}
	last := len(p.Stages) - 1
	if ga.StageCumMean[last] != ga.Mean {
		t.Fatalf("final cumulative mean %g != Mean %g", ga.StageCumMean[last], ga.Mean)
	}
	prev := 0.0
	for i, m := range ga.StageCumMean {
		if m <= prev {
			t.Fatalf("cumulative mean not increasing at stage %d: %g <= %g", i, m, prev)
		}
		prev = m
	}
	for l, s := range sources {
		if ga.StageCumSens[last][l] != ga.Sensitivity[s.Name] {
			t.Fatalf("final cumulative sensitivity for %s: %g != %g",
				s.Name, ga.StageCumSens[last][l], ga.Sensitivity[s.Name])
		}
	}
}

func TestGACostScalesLinearlyInSources(t *testing.T) {
	p := quickChain(t, []string{"INV"}, 10, true)
	s2 := DeviceSources(device.Tech180, 0.33, 0.33)
	s7 := append(DeviceSources(device.Tech180, 0.33, 0.33), WireSources(0.2)...)
	ga2, err := p.GradientAnalysis(GAConfig{Sources: s2})
	if err != nil {
		t.Fatal(err)
	}
	ga7, err := p.GradientAnalysis(GAConfig{Sources: s7})
	if err != nil {
		t.Fatal(err)
	}
	if ga7.Simulations-ga2.Simulations != 2*(len(s7)-len(s2)) {
		t.Fatalf("GA cost not linear in sources: %d vs %d", ga2.Simulations, ga7.Simulations)
	}
}

func TestSourceValidation(t *testing.T) {
	bad := []Source{
		{Name: "none", Sigma: 1},
		{Name: "two", Sigma: 1, IsDL: true, IsDVT: true},
		{Name: "neg", Sigma: -1, IsDL: true},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("source %q should fail validation", s.Name)
		}
	}
	if err := (Source{Name: "ok", Sigma: 1, IsDL: true}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRunSpec(t *testing.T) {
	sources := []Source{
		{Name: "w", Sigma: 1, Wire: "W"},
		{Name: "dl", Sigma: 1, IsDL: true},
		{Name: "vt", Sigma: 1, IsDVT: true},
	}
	rs := BuildRunSpec(sources, []float64{0.5, 1e-9, 0.02})
	if rs.W["W"] != 0.5 || rs.DL != 1e-9 || rs.DVT != 0.02 {
		t.Fatalf("RunSpec wrong: %+v", rs)
	}
}

func TestInputCap(t *testing.T) {
	cInv := InputCap(device.INV, 1, device.Tech180, 0)
	if cInv <= 0 || cInv > 1e-13 {
		t.Fatalf("INV input cap %g implausible", cInv)
	}
	cBig := InputCap(device.INV, 8, device.Tech180, 0)
	if !almostEq(cBig, 8*cInv, 1e-18) {
		t.Fatalf("input cap must scale with drive: %g vs %g", cBig, 8*cInv)
	}
	// NAND2 pin 0 connects one NMOS + one PMOS gate, like INV but with
	// stack upsizing on the NMOS.
	cNand := InputCap(device.NAND2, 1, device.Tech180, 0)
	if cNand <= cInv {
		t.Fatalf("NAND2 input cap %g should exceed INV %g", cNand, cInv)
	}
}

func TestCellSignalTableCoversLibrary(t *testing.T) {
	for name := range cellSignal {
		cell, err := device.LookupCell(name)
		if err != nil {
			t.Fatalf("signal table references unknown cell %s", name)
		}
		if len(cellSignal[name].side) != cell.NIn-1 {
			t.Fatalf("%s: side values %d for %d inputs", name, len(cellSignal[name].side), cell.NIn)
		}
	}
	for _, name := range device.CellNames() {
		if _, ok := cellSignal[name]; !ok {
			t.Fatalf("library cell %s missing from signal table", name)
		}
	}
}

func TestNonInvertingStages(t *testing.T) {
	// BUF and XOR2(b=0) must propagate without inverting.
	p := quickChain(t, []string{"BUF", "XOR2"}, 10, false)
	ev, err := p.Evaluate(teta.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Delay <= 0 {
		t.Fatal("non-inverting chain must still accumulate delay")
	}
}

func TestMCDirectVsLibraryAgree(t *testing.T) {
	// With wire variations, the variational library must track exact
	// re-reduction closely over the sample set (the paper's Figure 6
	// claim: means/σ agree at numerical-noise level).
	p := quickChain(t, []string{"INV"}, 20, true)
	src := UniformWireSources()
	lib, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 8, Sources: src, KeepSamples: true, RunConfig: RunConfig{Seed: 11, Workers: -1}})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 8, Sources: src, KeepSamples: true, RunConfig: RunConfig{Seed: 11, Workers: -1, Engine: EngineTetaDirect}})
	if err != nil {
		t.Fatal(err)
	}
	if d := stat.KSDistance(lib.Delays, dir.Delays); d > 0.4 {
		t.Fatalf("library vs direct distributions differ: KS = %g", d)
	}
	meanErr := math.Abs(lib.Summary.Mean-dir.Summary.Mean) / dir.Summary.Mean
	if meanErr > 0.02 {
		t.Fatalf("library vs direct mean differ by %.3g", meanErr)
	}
}

func TestMCCorrelations(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	sources := DeviceSources(device.Tech180, 0.33, 0.33)
	mc, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 24, Sources: sources, KeepSamples: true, RunConfig: RunConfig{Seed: 2, Workers: -1}})
	if err != nil {
		t.Fatal(err)
	}
	corr, err := mc.Correlations(sources)
	if err != nil {
		t.Fatal(err)
	}
	// VT up slows -> positive correlation; DL up speeds -> negative.
	if corr["VT"] <= 0.2 {
		t.Fatalf("VT correlation %g, want strongly positive", corr["VT"])
	}
	if corr["DL"] >= -0.2 {
		t.Fatalf("DL correlation %g, want strongly negative", corr["DL"])
	}
}

func TestMCCorrelationsStreamingErrors(t *testing.T) {
	// A streaming run (KeepSamples unset) discards the per-sample rows the
	// screen needs; the failure must be explicit and actionable, not an
	// empty map.
	p := quickChain(t, []string{"INV"}, 10, false)
	sources := DeviceSources(device.Tech180, 0.33, 0.33)
	mc, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 4, Sources: sources, RunConfig: RunConfig{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Correlations(sources); err == nil {
		t.Fatal("streaming result must refuse the correlation screen")
	} else if !strings.Contains(err.Error(), "KeepSamples") {
		t.Fatalf("error should point at MCConfig.KeepSamples, got: %v", err)
	}
	if _, err := (&MCResult{}).Correlations(sources); err == nil {
		t.Fatal("empty result must error")
	}
}

func TestEvaluateFailsOnTruncatedWindow(t *testing.T) {
	// A window too short for the stage transition must produce a clear
	// error, not a bogus delay.
	p, err := BuildChain(ChainSpec{
		Cells: []string{"INV"}, ElemsBetween: 10, Tech: device.Tech180,
		DT: 4e-12, TStop: 0.25e-9, Order: 4, // input 50% arrives at 0.3 ns
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Evaluate(teta.RunSpec{}); err == nil {
		t.Fatal("truncated window must error")
	}
}

func TestEvaluateEmptyPath(t *testing.T) {
	p := &Path{Tech: device.Tech180}
	if _, err := p.Evaluate(teta.RunSpec{}); err == nil {
		t.Fatal("empty path must error")
	}
}

func TestMonteCarloRejectsBadConfig(t *testing.T) {
	p := quickChain(t, []string{"INV"}, 10, false)
	if _, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 0}); err == nil {
		t.Fatal("N=0 must error")
	}
	if _, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 2, Sources: []Source{{Name: "x", Sigma: 1}}}); err == nil {
		t.Fatal("invalid source must error")
	}
}

func TestMonteCarloHaltonSampling(t *testing.T) {
	p := quickChain(t, []string{"INV"}, 10, false)
	src := DeviceSources(device.Tech180, 0.33, 0.33)
	a, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 10, Sources: src, Sampler: SamplerHalton, KeepSamples: true, RunConfig: RunConfig{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 10, Sources: src, Sampler: SamplerHalton, KeepSamples: true, RunConfig: RunConfig{Seed: 999}})
	if err != nil {
		t.Fatal(err)
	}
	// Halton is seed-independent (deterministic sequence).
	for i := range a.Delays {
		if a.Delays[i] != b.Delays[i] {
			t.Fatal("Halton sampling must ignore the seed")
		}
	}
	if a.Summary.Std <= 0 {
		t.Fatal("variations must spread delays")
	}
}
