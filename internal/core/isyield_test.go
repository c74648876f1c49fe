package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lcsim/internal/checkpoint"
	"lcsim/internal/device"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// TestISSolveShift pins the minimum-norm shift algebra: the shifted mean
// must sit exactly on the first-order failure boundary (Σ g_l μ_l =
// budget − mean), each component proportional to σ_l²g_l, and ShiftScale
// scales the whole vector.
func TestISSolveShift(t *testing.T) {
	sources := []Source{
		{Name: "a", Sigma: 2, IsDL: true},
		{Name: "b", Sigma: 1, IsDVT: true},
	}
	ga := &GAResult{Mean: 10, Std: 5, Sensitivity: map[string]float64{"a": 3, "b": -1}}
	budget := 25.0

	shift, err := isSolveShift(sources, ga, budget, 1)
	if err != nil {
		t.Fatal(err)
	}
	onBoundary := 0.0
	for l, s := range sources {
		onBoundary += ga.Sensitivity[s.Name] * shift[l]
	}
	if math.Abs(onBoundary-(budget-ga.Mean)) > 1e-12 {
		t.Fatalf("shift lands at %g above the mean, want %g (on the boundary)", onBoundary, budget-ga.Mean)
	}
	// μ_a/μ_b = σ_a²g_a / σ_b²g_b = 4·3 / (1·−1) = −12.
	if ratio := shift[0] / shift[1]; math.Abs(ratio+12) > 1e-9 {
		t.Fatalf("shift ratio = %g, want -12 (∝ σ²g)", ratio)
	}
	half, err := isSolveShift(sources, ga, budget, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for l := range shift {
		if math.Abs(half[l]-0.5*shift[l]) > 1e-12 {
			t.Fatalf("ShiftScale 0.5 must halve component %d: %g vs %g", l, half[l], shift[l])
		}
	}
	// All-zero sensitivities cannot aim the proposal.
	if _, err := isSolveShift(sources, &GAResult{Sensitivity: map[string]float64{}}, budget, 1); err == nil {
		t.Fatal("zero sensitivities must error")
	}
}

// TestISConfigValidation covers the rejection paths: LHS sampling,
// deflating proposals, non-normal sources, and a missing budget.
func TestISConfigValidation(t *testing.T) {
	p := quickChain(t, []string{"INV"}, 4, false)
	base := func() ISConfig {
		return ISConfig{
			N:       8,
			Sources: DeviceSources(p.Tech, 0.33, 0.33),
			GA:      &GAResult{Mean: 1e-10, Std: 1e-11, Sensitivity: map[string]float64{"DL": 1, "VT": 1}},
			Budget:  1.2e-10,
		}
	}
	cases := map[string]func(*ISConfig){
		"lhs sampler":    func(c *ISConfig) { c.Sampler = SamplerLHS },
		"inflate<1":      func(c *ISConfig) { c.SigmaInflate = 0.8 },
		"negative scale": func(c *ISConfig) { c.ShiftScale = -1 },
		"no budget":      func(c *ISConfig) { c.Budget = 0; c.BudgetSigma = 0 },
		"zero N":         func(c *ISConfig) { c.N = 0 },
		"custom dist": func(c *ISConfig) {
			c.Sources = append([]Source(nil), c.Sources...)
			c.Sources[0].Dist = stat.Uniform{Lo: -1, Hi: 1}
		},
	}
	for name, mutate := range cases {
		cfg := base()
		mutate(&cfg)
		if _, err := p.ImportanceYieldCtx(context.Background(), cfg); err == nil {
			t.Fatalf("%s: config must be rejected", name)
		}
	}
}

// sameISBits compares the statistical outcome of two IS runs bit for
// bit — the worker-invariance and kill/resume contracts are exact.
func sameISBits(t *testing.T, got, want *ISResult) {
	t.Helper()
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(got.FailProb, want.FailProb) || !eq(got.StdErr, want.StdErr) ||
		!eq(got.ESS, want.ESS) || !eq(got.FailESS, want.FailESS) {
		t.Fatalf("estimator differs:\n got p=%v se=%v ess=%v fess=%v\nwant p=%v se=%v ess=%v fess=%v",
			got.FailProb, got.StdErr, got.ESS, got.FailESS,
			want.FailProb, want.StdErr, want.ESS, want.FailESS)
	}
	if got.N != want.N || got.Evals != want.Evals || got.Fails != want.Fails || got.NonFinite != want.NonFinite {
		t.Fatalf("counts differ: got (%d,%d,%d,%d) want (%d,%d,%d,%d)",
			got.N, got.Evals, got.Fails, got.NonFinite, want.N, want.Evals, want.Fails, want.NonFinite)
	}
	if !sameSummaryBits(got.Weighted, want.Weighted) {
		t.Fatalf("weighted summary differs:\n got %+v\nwant %+v", got.Weighted, want.Weighted)
	}
	if !reflect.DeepEqual(got.Failures, want.Failures) {
		t.Fatalf("failure report differs:\n got %+v\nwant %+v", got.Failures, want.Failures)
	}
	if got.TotalSC != want.TotalSC {
		t.Fatalf("TotalSC %d, want %d", got.TotalSC, want.TotalSC)
	}
}

// isTestCfg is the shared IS configuration of the invariance tests: a
// modest budget so both outcomes appear, a skip policy with injected
// faults so the failure report rides along, and a precomputed GA so
// every run shares the identical proposal.
func isTestCfg(t *testing.T, p *Path, workers int) ISConfig {
	t.Helper()
	ga, err := p.GradientAnalysis(GAConfig{Sources: DeviceSources(p.Tech, 0.33, 0.33)})
	if err != nil {
		t.Fatal(err)
	}
	return ISConfig{
		N:           40,
		Sources:     DeviceSources(p.Tech, 0.33, 0.33),
		GA:          ga,
		BudgetSigma: 1.5,
		RunConfig:   RunConfig{Seed: 11, Workers: workers, OnFailure: Skip},
		injectFault: func(i int) error {
			if i%9 == 3 {
				return fmt.Errorf("injected: %w", teta.ErrSCDiverged)
			}
			return nil
		},
	}
}

// TestISWorkerInvariance: the IS estimate is bit-identical at any worker
// count, skip-set included.
func TestISWorkerInvariance(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)
	ref, err := p.ImportanceYieldCtx(context.Background(), isTestCfg(t, p, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Fails == 0 || ref.Fails == ref.N {
		t.Fatalf("test budget must split outcomes, got %d/%d failing", ref.Fails, ref.N)
	}
	if !ref.Failures.Any() {
		t.Fatal("injected faults must appear in the failure report")
	}
	for _, workers := range []int{2, 4} {
		got, err := p.ImportanceYieldCtx(context.Background(), isTestCfg(t, p, workers))
		if err != nil {
			t.Fatal(err)
		}
		sameISBits(t, got, ref)
	}
}

// interruptedISRun mirrors interruptedRun for the IS driver: run with
// checkpointing until cancelAt samples complete, cancel, and require
// that the run did not complete.
func interruptedISRun(t *testing.T, p *Path, cfg ISConfig, path string, cancelAt int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 5}
	cfg.Progress = func(done, total int) {
		if done >= cancelAt {
			cancel()
		}
	}
	if _, err := p.ImportanceYieldCtx(ctx, cfg); err == nil {
		t.Fatal("interrupted IS run unexpectedly completed; cannot exercise resume")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written before the interrupt: %v", err)
	}
}

// TestISCheckpointResumeBitIdentical: kill an IS run mid-sweep, resume
// it (at a different worker count), and the final estimate is
// bit-identical to an uninterrupted run.
func TestISCheckpointResumeBitIdentical(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)
	ref, err := p.ImportanceYieldCtx(context.Background(), isTestCfg(t, p, 4))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "is.ckpt")
	interruptedISRun(t, p, isTestCfg(t, p, 4), path, 15)

	cfg := isTestCfg(t, p, 1) // resume at a different worker count
	cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 5, Resume: true}
	got, err := p.ImportanceYieldCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameISBits(t, got, ref)
}

// TestISAdaptiveGrowth: TargetCI grows the run by round-doubling at
// deterministic boundaries; an unreachable target runs to MaxN, a loose
// target stops at the first boundary that meets it, and a kill/resume
// mid-round reproduces the uninterrupted adaptive run bit for bit.
func TestISAdaptiveGrowth(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)

	unreachable := isTestCfg(t, p, 4)
	unreachable.TargetCI = 1e-12
	unreachable.MaxN = 4 * unreachable.N
	ref, err := p.ImportanceYieldCtx(context.Background(), unreachable)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Evals != 4*unreachable.N {
		t.Fatalf("unreachable target must run to MaxN: evals %d, want %d", ref.Evals, 4*unreachable.N)
	}

	loose := isTestCfg(t, p, 4)
	loose.TargetCI = 0.5
	loose.MaxN = 4 * loose.N
	quick, err := p.ImportanceYieldCtx(context.Background(), loose)
	if err != nil {
		t.Fatal(err)
	}
	if quick.Evals != loose.N {
		t.Fatalf("loose target must stop at the first round: evals %d, want %d", quick.Evals, loose.N)
	}

	// Kill mid-round-two (N=40, so cancel around sample 50 of [40,80))
	// and resume: the stop rule must be re-evaluated only at the round
	// boundary, reproducing the uninterrupted run exactly.
	path := filepath.Join(t.TempDir(), "is-adaptive.ckpt")
	victim := isTestCfg(t, p, 4)
	victim.TargetCI = 1e-12
	victim.MaxN = 4 * victim.N
	interruptedISRun(t, p, victim, path, 50)

	resume := isTestCfg(t, p, 1)
	resume.TargetCI = 1e-12
	resume.MaxN = 4 * resume.N
	resume.Checkpoint = &checkpoint.Config{Path: path, Every: 5, Resume: true}
	got, err := p.ImportanceYieldCtx(context.Background(), resume)
	if err != nil {
		t.Fatal(err)
	}
	sameISBits(t, got, ref)
}

// TestISProposalMismatchRefusal: resuming an IS snapshot under a changed
// proposal (different σ-inflation here) must refuse with ErrMismatch
// naming the IS proposal field.
func TestISProposalMismatchRefusal(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)
	path := filepath.Join(t.TempDir(), "is.ckpt")
	interruptedISRun(t, p, isTestCfg(t, p, 2), path, 15)

	cfg := isTestCfg(t, p, 2)
	cfg.SigmaInflate = 1.5 // a different proposal than the snapshot's
	cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 5, Resume: true}
	_, err := p.ImportanceYieldCtx(context.Background(), cfg)
	if err == nil {
		t.Fatal("changed proposal must refuse to resume")
	}
	if !strings.Contains(err.Error(), "IS proposal") {
		t.Fatalf("refusal must name the IS proposal, got: %v", err)
	}
}

// TestISYieldConsistency is the satellite cross-check: at a 2σ budget
// the GA-analytic, plain-MC and importance-sampled failure estimates
// must agree within their CIs (MC and IS measure the same true
// probability, so their difference is bounded by the combined CI; GA is
// a first-order model, so it gets the combined CI plus a model-bias
// allowance).
func TestISYieldConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-sample consistency sweep")
	}
	p := quickChain(t, []string{"INV", "NAND2", "INV"}, 6, false)
	sources := DeviceSources(p.Tech, 0.33, 0.33)
	ga, err := p.GradientAnalysis(GAConfig{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	budget := ga.Mean + 2*ga.Std

	mc, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N: 2000, Sources: sources, KeepSamples: true, Sampler: SamplerPseudo,
		RunConfig: RunConfig{Seed: 5, Workers: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	y := Yield(budget, ga, mc)
	mcFail := 1 - y.MCYield

	is, err := p.ImportanceYieldCtx(context.Background(), ISConfig{
		N: 500, Sources: sources, GA: ga, Budget: budget,
		RunConfig: RunConfig{Seed: 7, Workers: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("2σ budget: GA fail=%.5f  MC fail=%.5f±%.5f (n=%d)  IS fail=%.5f±%.5f (ess=%.0f fails=%d)",
		1-y.GAYield, mcFail, y.MCCIHalf, y.MCN, is.FailProb, is.CIHalf, is.ESS, is.Fails)

	if is.Fails == 0 {
		t.Fatal("IS run saw no failures at a 2σ budget; the proposal is not aimed")
	}
	if diff := math.Abs(is.FailProb - mcFail); diff > is.CIHalf+y.MCCIHalf {
		t.Fatalf("IS and MC disagree beyond combined CI: |%.5f - %.5f| = %.5f > %.5f",
			is.FailProb, mcFail, diff, is.CIHalf+y.MCCIHalf)
	}
	gaFail := 1 - y.GAYield
	allow := is.CIHalf + y.MCCIHalf + 0.5*gaFail // first-order model bias allowance
	if diff := math.Abs(is.FailProb - gaFail); diff > allow {
		t.Fatalf("IS and GA disagree beyond CI+bias allowance: |%.5f - %.5f| = %.5f > %.5f",
			is.FailProb, gaFail, diff, allow)
	}
	// The IS run must be the cheaper route to its CI: at 2σ the
	// reduction is modest but must already exceed 1.
	if is.EvalReduction <= 1 {
		t.Fatalf("EvalReduction = %.2f, want > 1 at a 2σ budget", is.EvalReduction)
	}
}

// TestISEvalReductionFloor is the tail-yield cost floor (the ISLE-style
// gain): on the Example-2 path — INV, NAND2, INV over 80-element, 40 µm
// variational coupled wires, device and wire variations at 0.33 — a
// 1000-sample IS run at a 4σ budget must reach its 95% CI with at least
// 100× fewer evaluations than plain Monte Carlo would need (339× at
// seed 1, the same at any worker count).
func TestISEvalReductionFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-sample 4σ tail run")
	}
	p, err := BuildChain(ChainSpec{
		Cells: []string{"INV", "NAND2", "INV"}, Drive: 2, ElemsBetween: 80, WireLengthUm: 40,
		Variational: true, Tech: device.Tech180, DT: 4e-12, TStop: 1.6e-9, Order: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	is, err := p.ImportanceYieldCtx(context.Background(), ISConfig{
		N:           1000,
		Sources:     append(DeviceSources(device.Tech180, 0.33, 0.33), WireSources(0.33)...),
		BudgetSigma: 4,
		RunConfig:   RunConfig{Seed: 1, Workers: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4σ budget: fail prob %.3e ± %.3e, %.0f eval-equivalents vs %.3g plain-MC evals: %.0fx fewer",
		is.FailProb, is.CIHalf, is.EvalsTotal, is.MCEvalsForCI, is.EvalReduction)
	if is.EvalReduction < 100 {
		t.Fatalf("EvalReduction = %.1fx, want >= 100x at a 4σ budget", is.EvalReduction)
	}
}
