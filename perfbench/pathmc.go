package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/runner"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// path_mc settings.
const (
	pathSamples   = 8000 // samples per Monte-Carlo call (the sample plan)
	sstaMin       = 5    // fewest block-SSTA calls per run; ssta_s is their median
	accuracyRows  = 4096 // plan rows in the fast-vs-exact accuracy subset
	replayRows    = 256  // plan rows replayed layer by layer when tracing
	spiceRows     = 4    // plan rows evaluated on spice-golden when tracing
	dcReps        = 3    // cold DC solves per stage when tracing
	maxDelayErr   = 1.0  // ROADMAP bound on teta-fast vs teta-exact, percent
	layerSumSlack = 0.25 // traced layer sum vs untraced per-sample time
)

// pathSetup is BuildChain plus the sample plan, timed as one set-up.
type pathSetup struct {
	p                    *core.Path
	plan                 []teta.RunSpec
	total, build, sample timer
}

// run sets up reps times, keeping the last path and plan.
func (s *pathSetup) run(seed int64, reps int) error {
	sources := example2Sources()
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		p, err := core.BuildChain(example2Spec())
		if err != nil {
			return fmt.Errorf("building the Example-2 path: %w", err)
		}
		t1 := time.Now()
		plan := samplePlan(seed, pathSamples, sources)
		t2 := time.Now()
		s.build.add(t1.Sub(t0))
		s.sample.add(t2.Sub(t1))
		s.total.add(t2.Sub(t0))
		s.p, s.plan = p, plan
	}
	return nil
}

// mcCall is one timed Monte-Carlo call.
type mcCall struct {
	wall   time.Duration
	res    *core.MCResult
	snap   runner.Snapshot
	allocs uint64
	evals  timer // EvalPath calls of a counted call
}

// runMC runs one plain Monte-Carlo delay sweep the way a batch caller
// does: LHS plan, teta-fast, streaming summary, no journal. With traced
// set it also collects the runner's counters, the allocation count and
// the duration of every EvalPath call.
func runMC(ctx context.Context, p *core.Path, seed int64, traced bool) (mcCall, error) {
	cfg := core.MCConfig{
		RunConfig: core.RunConfig{Seed: seed, Workers: workers, OnFailure: core.Skip},
		N:         pathSamples,
		Sources:   example2Sources(),
		Sampler:   core.SamplerLHS,
	}
	var m runner.Metrics
	var before runtime.MemStats
	var et engineTimer
	if traced {
		cfg.Metrics = &m
		defer et.install()()
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	res, err := p.MonteCarloCtx(ctx, cfg)
	c := mcCall{wall: time.Since(t0), res: res, evals: et.paths}
	if err != nil {
		return c, err
	}
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		c.snap = m.Snapshot()
		c.allocs = after.Mallocs - before.Mallocs
	}
	return c, nil
}

// summaryDigest adds a Monte-Carlo result's statistics bit for bit.
func summaryDigest(d *digest, s stat.Summary, f core.FailureReport) {
	d.ints(s.N, s.NonFinite, f.Skipped, f.Degraded)
	d.floats(s.Mean, s.Std, s.Min, s.Max, s.Median, s.P05, s.P95)
}

func runPathMC(ctx context.Context, opt options) (*outcome, error) {
	out := newOutcome()
	setup := &pathSetup{}
	if err := setup.run(deriveSeed(opt.seed, 0), setupBefore); err != nil {
		return nil, err
	}
	out.detail["settings"] = map[string]any{
		"path": "INV,NAND2,INV", "elems": example2Elems, "wire_um": example2WireUm,
		"sources": "DL,VT,5 wire", "sampler": "lhs", "engine": core.EngineTetaFast,
		"samples_per_call": pathSamples, "workers": workers, "on_failure": "skip",
		"accuracy_rows": accuracyRows,
	}

	// The measured loop: one caller issuing Monte-Carlo calls back to
	// back, each over its own seeded plan; call 0 uses the set-up's plan.
	// The traced run alternates plain and counted calls, so the
	// difference between the two is the tracing overhead. After each call
	// the caller also runs block SSTA of the same path, so ssta_s samples
	// the whole run rather than one moment of it.
	probe := &sstaProbe{}
	var plain, counted []mcCall
	rss := startRSS()
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	var first digest
	for k := 0; k < minCalls(opt) || time.Now().Before(deadline); k++ {
		traced := opt.trace && k%2 == 1
		c, err := runMC(ctx, setup.p, deriveSeed(opt.seed, uint64(k)), traced)
		out.attempted += pathSamples
		if err != nil {
			out.failed += pathSamples
			out.require("mc_call", false, float64(k), 0, err.Error())
			continue
		}
		f := c.res.Failures
		out.failed += int64(f.Skipped + f.Degraded)
		if k == 0 {
			summaryDigest(&first, c.res.Summary, f)
		}
		if traced {
			counted = append(counted, c)
		} else {
			plain = append(plain, c)
		}
		if err := probe.pathCall(ctx, opt.trace); err != nil {
			return nil, err
		}
	}
	peakMB, err := rss.stopMB()
	if err != nil {
		return nil, err
	}
	if err := setup.run(deriveSeed(opt.seed, 0), setupAfter); err != nil {
		return nil, err
	}
	out.detail["digest_call0"] = first.sum()
	out.detail["mc_calls"] = len(plain) + len(counted)
	if len(plain) == 0 {
		return nil, fmt.Errorf("no Monte-Carlo call completed")
	}
	var walls, rates timer
	for _, c := range plain {
		walls.add(c.wall)
		rates = append(rates, float64(c.res.Summary.N)/c.wall.Seconds())
	}

	// Accuracy reference: teta-fast against teta-exact over a fixed
	// subset of call 0's plan.
	errMean, errMax, err := engineError(setup.p, setup.plan[:accuracyRows])
	if err != nil {
		return nil, err
	}
	out.within("delay_err_max_pct", errMax, maxDelayErr)
	out.detail["delay_err_max_pct"] = errMax

	for len(probe.wall)+len(probe.countedWall) < sstaMin {
		if err := probe.pathCall(ctx, opt.trace); err != nil {
			return nil, err
		}
	}

	if !opt.trace {
		out.values["setup_s"] = setup.total.median()
		out.values["samples_per_s"] = median(rates)
		out.values["delay_err_pct"] = errMean
		out.values["ssta_s"] = probe.wall.median()
		out.values["job_latency_p50_s"] = walls.median()
		out.values["jobs_per_s"] = float64(len(walls)) / sum(walls)
		out.values["peak_rss_mb"] = peakMB
		out.detail["job_count"] = len(walls)
		return out, nil
	}
	return out, tracePathMC(ctx, opt, out, setup, plain, counted, probe)
}
