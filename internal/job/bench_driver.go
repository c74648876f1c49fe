package job

// This file orchestrates the bench driver: the scaling curve, the
// legacy var/exact rows, and the optional engine/yield/ssta sections,
// written to BENCH_mc.json and referenced as a result artifact.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/experiments"
	"lcsim/internal/modelcache"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

func init() {
	Register(Driver{
		Name: "bench",
		Doc:  "per-sample Monte-Carlo evaluation cost of the Example-2 stage, written to BENCH_mc.json",
		Run:  runBenchDriver,
	})
}

// BenchParams parameterizes the bench driver — the job-layer form of
// the classic `lcsim bench` flag set. Out is the report path (an
// artifact reference, not identity, but it rides in the params for
// fidelity with the flag set).
type BenchParams struct {
	Samples          int     `json:"samples"`
	Wire             float64 `json:"wire"`
	Engine           string  `json:"engine,omitempty"`
	Yield            bool    `json:"yield,omitempty"`
	SSTA             bool    `json:"ssta,omitempty"`
	SSTABench        string  `json:"ssta_bench,omitempty"`
	YieldSigma       float64 `json:"yield_sigma,omitempty"`
	YieldSamples     int     `json:"yield_samples,omitempty"`
	MinEvalReduction float64 `json:"min_eval_reduction,omitempty"`
	Out              string  `json:"out"`
	MinSpeedup       float64 `json:"min_speedup,omitempty"`
}

func runBenchDriver(ctx context.Context, spec *Spec, env *Env) (*Result, error) {
	var bp BenchParams
	if err := decodeParams(spec, &bp); err != nil {
		return nil, err
	}
	ck := spec.Run.Checkpoint.config()
	if ck != nil && bp.Engine == "" {
		return nil, fmt.Errorf("bench: -checkpoint journals the slow -engine row; pass -engine (e.g. spice-golden)")
	}
	deadline := time.Duration(spec.Run.SampleTimeout)
	t0 := time.Now()

	o := experiments.Ex2Options{Samples: bp.Samples, Seed: spec.Run.Seed, MacroCache: env.MacroCache}
	st, err := experiments.BuildExample2Stage(o, bp.Wire)
	if err != nil {
		return nil, err
	}
	exact := func(_ *teta.Scratch, rs teta.RunSpec) (*teta.Result, error) { return st.RunExact(rs) }
	specs := experiments.Example2Samples(o)

	rep := benchReport{
		Benchmark: "example2_mc_per_sample",
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoMaxProc: runtime.GOMAXPROCS(0),
		Samples:   bp.Samples,
		WireUm:    bp.Wire,
	}
	// Scaling curve first: the var path at workers ∈ {1, 2, 4, NumCPU}
	// (deduplicated, ascending). The legacy var_1w/var_nw rows reuse curve
	// points where the worker counts coincide rather than re-measuring.
	nw := runner.ResolveWorkers(spec.Run.Workers)
	counts := []int{1, 2, 4, runtime.NumCPU(), nw}
	sort.Ints(counts)
	for _, w := range counts {
		if n := len(rep.Scaling); n > 0 && rep.Scaling[n-1].Workers == w {
			continue
		}
		row, err := benchStage(ctx, st, st.RunWith, specs, w, spec.Run.Batch, core.EngineTetaFast, deadline)
		if err != nil {
			return nil, err
		}
		sr := scalingRow{benchRow: row, Speedup: 1}
		if len(rep.Scaling) > 0 {
			sr.Speedup = rep.Scaling[0].NsPerSample / row.NsPerSample
		}
		rep.Scaling = append(rep.Scaling, sr)
	}
	rep.Var1W = rep.Scaling[0].benchRow
	for _, r := range rep.Scaling {
		if r.Workers == nw {
			rep.VarNW = r.benchRow
		}
		rep.TimedOutSamples += r.TimedOut
	}
	rep.Exact1W, err = benchStage(ctx, st, exact, specs, 1, spec.Run.Batch, core.EngineTetaExact, deadline)
	if err != nil {
		return nil, err
	}
	rep.SpeedupCharOnce = rep.Exact1W.NsPerSample / rep.Var1W.NsPerSample
	rep.SpeedupParallel = rep.Var1W.NsPerSample / rep.VarNW.NsPerSample
	if bp.Engine != "" {
		row, snap, err := benchEngine(ctx, o, bp.Wire, bp.Engine, specs, deadline, ck)
		if err != nil {
			return nil, err
		}
		rep.EngineRow = &row
		rep.ResumedSamples = snap.Resumed
		rep.CheckpointBakLoads = snap.CheckpointBakLoads
		rep.CheckpointRenameRetries = snap.CheckpointRenameRetries
	}
	rep.TimedOutSamples += rep.Exact1W.TimedOut
	if rep.EngineRow != nil {
		rep.TimedOutSamples += rep.EngineRow.TimedOut
	}
	if bp.Yield {
		row, err := benchYield(ctx, env, bp.Wire, bp.YieldSamples, bp.YieldSigma, spec.Run.Workers)
		if err != nil {
			return nil, err
		}
		rep.Yield = &row
	}
	if bp.SSTA {
		row, err := benchSSTA(ctx, env, bp.SSTABench, spec.Run.Workers)
		if err != nil {
			return nil, err
		}
		rep.SSTA = &row
	}
	if store, ok := env.MacroCache.(*modelcache.Store); ok && store != nil {
		hits, misses, corrupt := store.Stats()
		rep.ModelCache = &modelCacheBenchRow{
			Dir: store.Dir(), Hits: hits, Misses: misses, Corrupt: corrupt,
		}
	}
	rep.DurationSec = time.Since(t0).Seconds()

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return nil, err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(bp.Out, buf, 0o644); err != nil {
		return nil, err
	}
	env.printf("var path   : %8.0f ns/sample, %6.1f allocs/sample, %7.1f samples/s (1 worker)\n",
		rep.Var1W.NsPerSample, rep.Var1W.AllocsPerSample, rep.Var1W.SamplesPerSec)
	env.printf("var path   : %8.0f ns/sample, %6.1f allocs/sample, %7.1f samples/s (%d workers)\n",
		rep.VarNW.NsPerSample, rep.VarNW.AllocsPerSample, rep.VarNW.SamplesPerSec, nw)
	env.printf("exact path : %8.0f ns/sample, %6.1f allocs/sample, %7.1f samples/s (1 worker)\n",
		rep.Exact1W.NsPerSample, rep.Exact1W.AllocsPerSample, rep.Exact1W.SamplesPerSec)
	if rep.EngineRow != nil {
		env.printf("%-11s: %8.0f ns/sample, %6.1f allocs/sample, %7.1f samples/s (1 worker)\n",
			rep.EngineRow.Engine, rep.EngineRow.NsPerSample, rep.EngineRow.AllocsPerSample, rep.EngineRow.SamplesPerSec)
	}
	env.printf("speedup    : %.2fx characterize-once (1 worker), %.2fx parallel\n",
		rep.SpeedupCharOnce, rep.SpeedupParallel)
	env.printf("scaling    :\n")
	for _, r := range rep.Scaling {
		env.printf("  %3d workers: %8.0f ns/sample, %5.2fx speedup, %3.0f%% busy, %3.0f%% chan-wait\n",
			r.Workers, r.NsPerSample, r.Speedup, r.Utilization*100, r.ChanWaitFrac*100)
	}
	if rep.Yield != nil {
		env.printf("yield      : %.1fσ budget, fail prob %.3e ± %.3e, ESS %.0f/%.0f\n",
			rep.Yield.BudgetSigma, rep.Yield.FailProb, rep.Yield.CIHalf, rep.Yield.ESS, rep.Yield.FailESS)
		env.printf("             %8.0f IS eval-equivalents vs %.3g plain-MC evals for the same CI: %.0fx fewer evals\n",
			rep.Yield.ISEvals, rep.Yield.MCEvalsForCI, rep.Yield.EvalReduction)
	}
	if rep.SSTA != nil {
		env.printf("ssta       : %s — %d blocks, %d distinct (%d cache hits), %d sinks, %.1f ms characterize / %.1f ms total\n",
			rep.SSTA.Circuit, rep.SSTA.Blocks, rep.SSTA.Distinct, rep.SSTA.CacheHits, rep.SSTA.Sinks,
			float64(rep.SSTA.CharNs)/1e6, float64(rep.SSTA.TotalNs)/1e6)
	}
	env.printf("wrote %s\n", bp.Out)
	if bp.MinEvalReduction > 0 {
		if rep.Yield == nil {
			return nil, fmt.Errorf("bench: -min-eval-reduction needs -yield")
		}
		if rep.Yield.EvalReduction < bp.MinEvalReduction {
			return nil, fmt.Errorf("bench: IS evaluation reduction %.1fx is below the -min-eval-reduction floor %.1fx",
				rep.Yield.EvalReduction, bp.MinEvalReduction)
		}
	}
	if bp.MinSpeedup > 0 {
		got := 0.0
		for _, r := range rep.Scaling {
			if r.Workers == 4 {
				got = r.Speedup
			}
		}
		if got < bp.MinSpeedup {
			return nil, fmt.Errorf("bench: 4-worker speedup %.2fx is below the -min-speedup floor %.2fx (gomaxprocs %d)",
				got, bp.MinSpeedup, rep.GoMaxProc)
		}
	}
	return &Result{
		Summary:   &rep,
		Artifacts: []Artifact{{Name: "bench-report", Path: bp.Out}},
	}, nil
}
