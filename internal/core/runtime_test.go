package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"lcsim/internal/device"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// TestMonteCarloWorkerInvariance is the reproducibility acceptance check:
// a fixed seed gives bit-identical per-sample delays and Summary at any
// worker count.
func TestMonteCarloWorkerInvariance(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	src := DeviceSources(device.Tech180, 0.33, 0.33)
	run := func(workers int) *MCResult {
		res, err := p.MonteCarloCtx(context.Background(), MCConfig{
			N: 8, Sources: src, KeepSamples: true,
			RunConfig: RunConfig{Seed: 5, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{4, 16, -1} {
		got := run(w)
		if got.Summary != ref.Summary {
			t.Fatalf("workers=%d summary differs: %+v vs %+v", w, got.Summary, ref.Summary)
		}
		for i := range ref.Delays {
			if got.Delays[i] != ref.Delays[i] {
				t.Fatalf("workers=%d delay %d differs: %g vs %g", w, i, got.Delays[i], ref.Delays[i])
			}
		}
	}
}

// TestMonteCarloStreamingMatchesMaterialized checks the KeepSamples=false
// path: no per-sample rows are kept, and the streamed Summary agrees with
// the materialized one (mean/σ to ~1e-9 relative, min/max exactly).
func TestMonteCarloStreamingMatchesMaterialized(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	src := DeviceSources(device.Tech180, 0.33, 0.33)
	kept, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N: 10, Sources: src, KeepSamples: true,
		RunConfig: RunConfig{Seed: 7, Workers: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N: 10, Sources: src,
		RunConfig: RunConfig{Seed: 7, Workers: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Delays != nil || stream.Samples != nil {
		t.Fatal("streaming run must not materialize Delays/Samples")
	}
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
	if rel(stream.Summary.Mean, kept.Summary.Mean) > 1e-9 {
		t.Fatalf("stream mean %g vs %g", stream.Summary.Mean, kept.Summary.Mean)
	}
	if rel(stream.Summary.Std, kept.Summary.Std) > 1e-9 {
		t.Fatalf("stream std %g vs %g", stream.Summary.Std, kept.Summary.Std)
	}
	if stream.Summary.Min != kept.Summary.Min || stream.Summary.Max != kept.Summary.Max {
		t.Fatal("stream min/max must be exact")
	}
	if stream.Summary.N != kept.Summary.N {
		t.Fatalf("stream N = %d", stream.Summary.N)
	}
	if stream.TotalSC != kept.TotalSC {
		t.Fatalf("stream TotalSC %d vs %d", stream.TotalSC, kept.TotalSC)
	}
}

// TestMonteCarloCtxCancellation checks the abort contract: a canceled
// context stops the run and surfaces ctx.Err() wrapped with the sample
// index reached.
func TestMonteCarloCtxCancellation(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	src := DeviceSources(device.Tech180, 0.33, 0.33)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 4} {
		_, err := p.MonteCarloCtx(ctx, MCConfig{N: 50, Sources: src, RunConfig: RunConfig{Seed: 1, Workers: workers}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if !strings.Contains(err.Error(), "canceled at sample") {
			t.Fatalf("error must report the sample index reached: %v", err)
		}
	}
}

// TestMonteCarloSamplersDiffer guards against two samplers silently
// resolving to the same plan.
func TestMonteCarloSamplersDiffer(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	src := DeviceSources(device.Tech180, 0.33, 0)
	delays := map[Sampler][]float64{}
	for _, s := range []Sampler{SamplerLHS, SamplerHalton, SamplerPseudo} {
		res, err := p.MonteCarloCtx(context.Background(), MCConfig{
			N: 6, Sources: src, Sampler: s, KeepSamples: true,
			RunConfig: RunConfig{Seed: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		delays[s] = res.Delays
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(delays[SamplerLHS], delays[SamplerHalton]) ||
		same(delays[SamplerLHS], delays[SamplerPseudo]) ||
		same(delays[SamplerHalton], delays[SamplerPseudo]) {
		t.Fatal("distinct samplers must produce distinct plans")
	}
}

func TestSamplerParseAndString(t *testing.T) {
	for _, c := range []struct {
		name string
		want Sampler
	}{{"lhs", SamplerLHS}, {"halton", SamplerHalton}, {"pseudo", SamplerPseudo}, {"", SamplerLHS}} {
		got, err := ParseSampler(c.name)
		if err != nil || got != c.want {
			t.Fatalf("ParseSampler(%q) = %v, %v", c.name, got, err)
		}
	}
	if _, err := ParseSampler("sobol"); err == nil {
		t.Fatal("unknown sampler must error")
	}
	if SamplerHalton.String() != "halton" || SamplerDefault.String() != "lhs" {
		t.Fatal("Sampler.String mismatch")
	}
}

// TestMonteCarloMetrics checks the cost counters: one Samples tick per
// evaluation, SC iterations matching TotalSC, stage evaluations equal to
// N × stages, and a positive linear-solve count.
func TestMonteCarloMetrics(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	src := DeviceSources(device.Tech180, 0.33, 0.33)
	m := &runner.Metrics{}
	var calls int
	res, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N: 6, Sources: src,
		RunConfig: RunConfig{
			Seed: 2, Workers: 2, Metrics: m,
			Progress: func(done, total int) { calls++ },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.Samples != 6 {
		t.Fatalf("samples = %d", s.Samples)
	}
	if s.SCIterations != int64(res.TotalSC) || s.SCIterations == 0 {
		t.Fatalf("SC iterations %d vs TotalSC %d", s.SCIterations, res.TotalSC)
	}
	if s.StageEvals != int64(6*len(p.Stages)) {
		t.Fatalf("stage evals = %d", s.StageEvals)
	}
	if s.LinearSolves <= 0 {
		t.Fatalf("linear solves = %d", s.LinearSolves)
	}
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
}

// TestGradientAnalysisMetrics checks the GA wiring: the metrics stage-eval
// counter agrees with the GA Simulations cost metric.
func TestGradientAnalysisMetrics(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	src := DeviceSources(device.Tech180, 0.33, 0)
	m := &runner.Metrics{}
	ga, err := p.GradientAnalysis(GAConfig{Sources: src, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.StageEvals != int64(ga.Simulations) || s.StageEvals == 0 {
		t.Fatalf("stage evals %d vs simulations %d", s.StageEvals, ga.Simulations)
	}
	if s.SCIterations <= 0 || s.LinearSolves <= 0 {
		t.Fatalf("cost counters not wired: %+v", s)
	}
}

// TestPathEvalLinearSolves checks that per-sample solve counts propagate
// from the TETA engine through PathEval.
func TestPathEvalLinearSolves(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 10, false)
	ev, err := p.Evaluate(teta.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.LinearSolves <= 0 {
		t.Fatalf("LinearSolves = %d", ev.LinearSolves)
	}
	if ev.LinearSolves < ev.SCIters {
		t.Fatalf("each SC iteration costs at least one solve: %d vs %d", ev.LinearSolves, ev.SCIters)
	}
}

// TestMonteCarloSkewCtxWorkerInvariance mirrors the MC reproducibility
// check for the skew runtime.
func TestMonteCarloSkewCtxWorkerInvariance(t *testing.T) {
	p := quickChain(t, []string{"BUF"}, 10, true)
	q := quickChain(t, []string{"BUF"}, 10, true)
	pp := &PathPair{
		A: p, B: q,
		Shared:       UniformWireSources(),
		IndependentA: DeviceSources(device.Tech180, 0.33, 0),
		IndependentB: DeviceSources(device.Tech180, 0.33, 0),
	}
	m := &runner.Metrics{}
	ref, err := pp.MonteCarloSkewCtx(context.Background(), SkewConfig{N: 6, RunConfig: RunConfig{Seed: 4, Workers: 0, Metrics: m}})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.Samples != 6 || s.StageEvals != 12 || s.SCIterations <= 0 {
		t.Fatalf("skew metrics not wired: %+v", s)
	}
	par, err := pp.MonteCarloSkewCtx(context.Background(), SkewConfig{N: 6, RunConfig: RunConfig{Seed: 4, Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Skews {
		if ref.Skews[i] != par.Skews[i] {
			t.Fatalf("skew differs at %d: %g vs %g", i, par.Skews[i], ref.Skews[i])
		}
	}
	if ref.Skew != par.Skew {
		t.Fatal("skew summary differs across worker counts")
	}
}
