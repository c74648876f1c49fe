package main

import (
	"context"
	"math"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/runner"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// tracePathMC derives path_mc's per-layer metrics. Counters and EvalPath
// times come from the counted Monte-Carlo calls; the layers inside a
// sample are timed by replaying the calls the program makes on
// separately built copies of the path, with self times derived by
// subtraction.
func tracePathMC(ctx context.Context, opt options, out *outcome, setup *pathSetup, plain, counted []mcCall, probe *sstaProbe) error {
	v := out.values
	var busy, wait, allocs, solves []float64
	var evalPath timer
	for _, c := range counted {
		evalPath = append(evalPath, c.evals...)
		workerNs := float64(c.wall.Nanoseconds()) * workers
		busy = append(busy, float64(c.snap.BusyNs)/workerNs)
		wait = append(wait, float64(c.snap.SendWaitNs)/workerNs)
		allocs = append(allocs, float64(c.allocs)/pathSamples)
		solves = append(solves, float64(c.snap.LinearSolves)/float64(c.snap.Samples))
	}
	v["runner.busy_frac"] = median(busy)
	v["runner.send_wait_frac"] = median(wait)
	v["core.allocs_per_sample"] = median(allocs)
	v["teta.solves_per_sample"] = median(solves)
	v["core.build_chain_ms"] = setup.build.median() * 1e3
	v["stat.plan_ns_per_sample"] = setup.sample.median() * 1e9 / pathSamples

	// Sample-level replays on a separate copy of the path.
	q, err := core.BuildChain(example2Spec())
	if err != nil {
		return err
	}
	fast, err := q.Engine(core.EngineTetaFast)
	if err != nil {
		return err
	}
	fsc := fast.NewScratch()
	if err := checkPlanReplay(ctx, out, q, fast, fsc, opt.seed); err != nil {
		return err
	}
	rep := newPathReplay(q, example2Cells)
	dt := example2Spec().DT
	var extract timer
	macros := make([]*macroReplay, len(q.Stages))
	for i, st := range q.Stages {
		var d time.Duration
		if macros[i], d, err = newMacroReplay(st.TStage, dt); err != nil {
			return err
		}
		extract.add(d)
	}
	var measure timer
	var layers stageLayers
	var delays []float64
	mismatches := 0
	for _, rs := range setup.plan[:replayRows] {
		ev, err := fast.EvalPath(fsc, rs)
		if err != nil {
			return err
		}
		t0 := time.Now()
		d, calls, _, err := rep.eval(rs)
		total := time.Since(t0)
		if err != nil {
			return err
		}
		if d != ev.Delay {
			mismatches++
		}
		delays = append(delays, d)
		var inRun time.Duration
		for si, c := range calls {
			inRun += c.run
			mc, err := macros[si].sample(rs.W, c.stats.Steps)
			if err != nil {
				return err
			}
			layers.add(c, mc)
		}
		measure.add(total - inRun)
	}
	out.require("replay_matches_engine", mismatches == 0, float64(mismatches), 0,
		"stage-by-stage replay delays must equal Engine.EvalPath bit for bit")
	v["core.eval_path_us"] = evalPath.median() * 1e6
	v["core.measure_us_per_sample"] = measure.median() * 1e6
	layers.report(v)
	v["poleres.extract_var_ms"] = extract.median() * 1e3

	// The DC start runs on a third copy: PrimeDC stores a warm start in
	// its stage, which must never reach the copy whose samples are timed.
	r, err := core.BuildChain(example2Spec())
	if err != nil {
		return err
	}
	_, _, inputs, err := newPathReplay(r, example2Cells).eval(teta.RunSpec{})
	if err != nil {
		return err
	}
	dc, err := dcStarts(r, example2Cells, inputs, macros, dcReps)
	if err != nil {
		return err
	}
	v["teta.dc_start_us"] = mean(dc) * 1e6

	// Runner dispatch with no evaluation work, and the streaming
	// accumulation of the replayed delays, each per sample.
	var dispatch, accumulate timer
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		sink := 0.0
		err := runner.MapWorker(ctx, pathSamples, runner.Options{Workers: workers},
			func() struct{} { return struct{}{} },
			func(_ context.Context, i int, _ struct{}) (float64, error) { return float64(i), nil },
			func(_ int, x float64) { sink += x })
		dispatch.since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		s := stat.NewStreamSummary()
		var m stat.Moments
		for i := 0; i < pathSamples; i++ {
			x := delays[i%len(delays)]
			s.AddQuantiles(x)
			m.Add(x)
		}
		s.MergeMoments(&m)
		_ = s.Summary()
		accumulate.since(t0)
	}
	v["runner.dispatch_ns_per_sample"] = dispatch.median() * 1e9 * workers / pathSamples
	v["stat.accumulate_ns_per_sample"] = accumulate.median() * 1e9 / pathSamples

	// The per-sample layers must account for the untraced per-sample
	// cost (worker time per sample of the plain calls).
	var plainWall, countedWall timer
	for _, c := range plain {
		plainWall.add(c.wall)
	}
	for _, c := range counted {
		countedWall.add(c.wall)
	}
	untracedNs := plainWall.median() * 1e9 * workers / pathSamples
	layerNs := v["stat.plan_ns_per_sample"] + v["runner.dispatch_ns_per_sample"] +
		v["core.eval_path_us"]*1e3 + v["stat.accumulate_ns_per_sample"]
	gap := layerNs/untracedNs - 1
	out.require("layer_sum_vs_untraced", math.Abs(gap) <= layerSumSlack, gap, layerSumSlack,
		"(plan + dispatch + EvalPath + accumulate) / untraced worker-ns per sample - 1")
	out.detail["tracing"] = map[string]any{
		"untraced_ns_per_sample": untracedNs,
		"layer_sum_ns":           layerNs,
		"layer_sum_gap":          gap,
		"tolerance":              layerSumSlack,
		"overhead_frac":          countedWall.median()/plainWall.median() - 1,
		"plain_calls":            len(plain),
		"counted_calls":          len(counted),
	}

	// Paper reference: a handful of spice-golden samples of the path
	// against teta-fast on the same rows.
	spice, err := q.Engine(core.EngineSpiceGolden)
	if err != nil {
		return err
	}
	ssc := spice.NewScratch()
	var spiceT, tetaT timer
	var deltas []float64
	for _, rs := range setup.plan[:spiceRows] {
		t0 := time.Now()
		g, err := spice.EvalPath(ssc, rs)
		spiceT.since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		f, err := fast.EvalPath(fsc, rs)
		tetaT.since(t0)
		if err != nil {
			return err
		}
		deltas = append(deltas, 100*math.Abs(f.Delay-g.Delay)/g.Delay)
	}
	v["spice.speedup_vs_teta"] = spiceT.median() / tetaT.median()
	v["spice.delay_delta_pct"] = mean(deltas)

	// Block SSTA of the same path, layer by layer.
	v["iscas.load_ms"] = probe.load.median() * 1e3
	v["ssta.partition_ms"] = probe.partition.median() * 1e3
	v["ssta.propagate_ms"] = probe.propagate.median() * 1e3
	br, err := replayBlocks(probe.res.Graph(), example2SSTAConfig())
	if err != nil {
		return err
	}
	br.report(v, probe)
	return nil
}

// checkPlanReplay verifies that the benchmark's plan replay is the plan
// the program evaluates: a small KeepSamples run must report, row for
// row, the delays the replayed rows give on the engine.
func checkPlanReplay(ctx context.Context, out *outcome, p *core.Path, fast core.Engine, sc any, seed int64) error {
	const n = 64
	seed = deriveSeed(seed, 1<<32)
	res, err := p.MonteCarloCtx(ctx, core.MCConfig{
		RunConfig: core.RunConfig{Seed: seed},
		N:         n, Sources: example2Sources(), Sampler: core.SamplerLHS, KeepSamples: true,
	})
	if err != nil {
		return err
	}
	bad := 0
	for i, rs := range samplePlan(seed, n, example2Sources()) {
		ev, err := fast.EvalPath(sc, rs)
		if err != nil {
			return err
		}
		if ev.Delay != res.Delays[i] {
			bad++
		}
	}
	out.require("plan_replay_matches_program", bad == 0, float64(bad), 0,
		"rows of the replayed LHS plan must reproduce MonteCarloCtx's per-sample delays bit for bit")
	return nil
}
