package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/iscas"
	"lcsim/internal/runner"
	"lcsim/internal/ssta"
	"lcsim/internal/teta"
)

// ssta_chip settings.
const (
	chipName = "s9234"
	// refChipMean and refChipStd are the chip-level arrival of the
	// generated s9234 under cold block SSTA at chipConfig, recorded from
	// this code; a run whose chip mean or sigma leaves 1% of them fails.
	refChipMean = 2.2771928454454407e-09
	refChipStd  = 1.0014324897230768e-10
	chipRefTol  = 0.01
	// linPoints is the number of 2-sigma directions the block delay
	// model is checked at.
	linPoints = 8
)

// chipConfig is cold block SSTA with DL and VT at the Example-3
// characterization settings, no model cache.
func chipConfig() ssta.Config {
	return ssta.Config{
		RunConfig: core.RunConfig{Workers: workers},
		Sources:   core.DeviceSources(device.Tech180, 0.33, 0.33),
		Tech:      device.Tech180, Drive: 2, Elems: 10,
		DT: 4e-12, TStop: 1.6e-9, Order: 4,
	}
}

// sstaProbe times repeated cold ssta.Run calls, split into plain calls
// and counted ones (runner counters on, partition timed separately).
type sstaProbe struct {
	res         *ssta.Result
	wall        timer // plain calls
	countedWall timer // counted calls
	load        timer
	partition   timer
	propagate   timer
	charWall    timer
	busy, wait  []float64
	busyS       timer // runner busy time of each counted call
	stageEval   timer // GA stage evaluations of each counted call
	simRate     []float64
	digests     []string
}

// sstaCall times one ssta.Run of c. A counted call also collects the
// runner's counters and times every GA stage evaluation.
func (pr *sstaProbe) sstaCall(ctx context.Context, c *iscas.Circuit, cfg ssta.Config, counted bool) error {
	var part time.Duration
	var m runner.Metrics
	var et engineTimer
	if counted {
		t0 := time.Now()
		if _, err := ssta.Partition(c); err != nil {
			return err
		}
		part = pr.partition.since(t0)
		cfg.Metrics = &m
		defer et.install()()
	}
	t0 := time.Now()
	res, err := ssta.Run(ctx, c, cfg)
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("ssta.Run on %s: %w", c.Name, err)
	}
	pr.res = res
	pr.simRate = append(pr.simRate, float64(res.Stats.Simulations)/wall.Seconds())
	var d digest
	d.floats(res.Chip.Mean, res.Chip.Std)
	for _, s := range res.Sinks {
		d.bytes([]byte(s.Net))
		d.floats(s.Mean, s.Std)
	}
	pr.digests = append(pr.digests, d.sum())
	if !counted {
		pr.wall.add(wall)
		return nil
	}
	pr.countedWall.add(wall)
	pr.charWall.add(res.Stats.Wall)
	pr.propagate.add(wall - part - res.Stats.Wall)
	s := m.Snapshot()
	workerNs := float64(res.Stats.Wall.Nanoseconds()) * float64(runner.ResolveWorkers(cfg.Workers))
	pr.busy = append(pr.busy, float64(s.BusyNs)/workerNs)
	pr.wait = append(pr.wait, float64(s.SendWaitNs)/workerNs)
	pr.busyS.add(time.Duration(s.BusyNs))
	pr.stageEval.add(et.stages)
	return nil
}

// sameDigests reports whether every call produced bit-identical sinks.
func (pr *sstaProbe) sameDigests() bool {
	for _, d := range pr.digests {
		if d != pr.digests[0] {
			return false
		}
	}
	return true
}

// pathCall runs one cold block SSTA of the Example-2 netlist: the
// first-order statistical timing of the path_mc path.
func (pr *sstaProbe) pathCall(ctx context.Context, counted bool) error {
	t0 := time.Now()
	c, err := loadExample2Circuit()
	if err != nil {
		return err
	}
	pr.load.since(t0)
	return pr.sstaCall(ctx, c, example2SSTAConfig(), counted)
}

func runSSTAChip(ctx context.Context, opt options) (*outcome, error) {
	out := newOutcome()
	bench, ok := iscas.Lookup(chipName)
	if !ok {
		return nil, fmt.Errorf("benchmark %s not found", chipName)
	}
	pr := &sstaProbe{}
	var setup timer
	var c *iscas.Circuit
	timeSetup := func(reps int) error {
		for k := 0; k < reps; k++ {
			t0 := time.Now()
			var err error
			if c, err = iscas.Load(bench); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := ssta.Partition(c); err != nil {
				return err
			}
			pr.load.add(t1.Sub(t0))
			pr.partition.add(time.Since(t1))
			setup.since(t0)
		}
		return nil
	}
	if err := timeSetup(setupBefore); err != nil {
		return nil, err
	}
	cfg := chipConfig()
	out.detail["settings"] = map[string]any{
		"circuit": chipName, "sources": "DL,VT", "workers": workers, "model_cache": false,
		"elems": cfg.Elems, "lin_points": linPoints,
	}

	rss := startRSS()
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	for k := 0; k < minCalls(opt) || time.Now().Before(deadline); k++ {
		out.attempted++
		if err := pr.sstaCall(ctx, c, cfg, opt.trace && k%2 == 1); err != nil {
			out.failed++
			out.require("ssta_call", false, float64(k), 0, err.Error())
		}
	}
	peakMB, err := rss.stopMB()
	if err != nil {
		return nil, err
	}
	if err := timeSetup(setupAfter); err != nil {
		return nil, err
	}
	if pr.res == nil {
		return nil, fmt.Errorf("no ssta.Run call completed")
	}
	chip := pr.res.Chip
	out.within("chip_mean_vs_reference", math.Abs(chip.Mean-refChipMean)/refChipMean, chipRefTol)
	out.within("chip_std_vs_reference", math.Abs(chip.Std-refChipStd)/refChipStd, chipRefTol)
	out.require("calls_bit_identical", pr.sameDigests(), float64(len(pr.digests)), 0, "")
	out.detail["digest"] = pr.digests[0]
	out.detail["chip"] = chip
	out.detail["blocks"] = pr.res.Stats

	if !opt.trace {
		linErr, err := blockModelError(pr.res, cfg, deriveSeed(opt.seed, 0))
		if err != nil {
			return nil, err
		}
		out.values["setup_s"] = setup.median()
		out.values["samples_per_s"] = median(pr.simRate)
		out.values["delay_err_pct"] = linErr
		out.values["ssta_s"] = pr.wall.median()
		out.values["job_latency_p50_s"] = pr.wall.median()
		out.values["jobs_per_s"] = float64(len(pr.wall)) / sum(pr.wall)
		out.values["peak_rss_mb"] = peakMB
		out.detail["job_count"] = len(pr.wall)
		return out, nil
	}

	v := out.values
	v["iscas.load_ms"] = pr.load.median() * 1e3
	v["ssta.partition_ms"] = pr.partition.median() * 1e3
	v["ssta.propagate_ms"] = pr.propagate.median() * 1e3
	v["runner.busy_frac"] = median(pr.busy)
	v["runner.send_wait_frac"] = median(pr.wait)
	br, err := replayBlocks(pr.res.Graph(), cfg)
	if err != nil {
		return nil, err
	}
	br.report(v, pr)
	v["core.build_chain_ms"] = br.build.median() * 1e3
	v["poleres.extract_var_ms"] = br.extract.median() * 1e3
	v["teta.dc_start_us"] = mean(br.dc) * 1e6
	br.stages.report(v)

	// The GA stage evaluations timed inside the counted calls, plus the
	// replayed BuildChain of every distinct block, must account for the
	// workers' busy time in those calls.
	busyS := pr.busyS.median()
	work := pr.stageEval.median() + sum(br.build)
	gap := work/busyS - 1
	out.require("layer_sum_vs_untraced", math.Abs(gap) <= layerSumSlack, gap, layerSumSlack,
		"(GA stage evaluations + BuildChain of every distinct block) / runner busy time - 1")
	out.detail["tracing"] = map[string]any{
		"block_work_s":  work,
		"runner_busy_s": busyS,
		"layer_sum_gap": gap,
		"tolerance":     layerSumSlack,
		"overhead_frac": pr.countedWall.median()/pr.wall.median() - 1,
		"plain_calls":   len(pr.wall),
		"counted_calls": len(pr.countedWall),
	}
	return out, nil
}

// blockReplay is the serial replay of a partition's characterization:
// BuildChain and GradientAnalysis of every distinct block on a fresh
// copy, plus each stage's macromodel extraction and cold DC start.
type blockReplay struct {
	build, ga, extract timer
	dc                 []float64   // per-stage median cold DC solve, seconds
	stages             stageLayers // nominal evaluation of every block stage
	sims               int
	worst              time.Duration // slowest block's BuildChain + GA
}

func replayBlocks(g *ssta.Graph, cfg ssta.Config) (*blockReplay, error) {
	cells := map[string][]string{}
	for _, b := range g.Blocks {
		if _, ok := cells[b.Key]; !ok {
			cells[b.Key] = b.Cells
		}
	}
	br := &blockReplay{}
	for _, key := range g.DistinctKeys() {
		p, build, err := buildBlock(cells[key], cfg)
		if err != nil {
			return nil, err
		}
		br.build.add(build)
		t0 := time.Now()
		ga, err := p.GradientAnalysis(core.GAConfig{Sources: cfg.Sources})
		gaT := br.ga.since(t0)
		if err != nil {
			return nil, fmt.Errorf("GA of block %q: %w", key, err)
		}
		br.sims += ga.Simulations
		if build+gaT > br.worst {
			br.worst = build + gaT
		}
		macros := make([]*macroReplay, len(p.Stages))
		for i, st := range p.Stages {
			var d time.Duration
			if macros[i], d, err = newMacroReplay(st.TStage, cfg.DT); err != nil {
				return nil, err
			}
			br.extract.add(d)
		}
		_, calls, inputs, err := newPathReplay(p, cells[key]).eval(teta.RunSpec{})
		if err != nil {
			return nil, fmt.Errorf("block %q: %w", key, err)
		}
		for i, c := range calls {
			mc, err := macros[i].sample(nil, c.stats.Steps)
			if err != nil {
				return nil, err
			}
			br.stages.add(c, mc)
		}
		dc, err := dcStarts(p, cells[key], inputs, macros, dcReps)
		if err != nil {
			return nil, err
		}
		br.dc = append(br.dc, dc...)
	}
	return br, nil
}

// report sets the GA metrics every SSTA-bearing workload shares.
func (br *blockReplay) report(v map[string]float64, pr *sstaProbe) {
	v["core.ga_ms"] = br.ga.median() * 1e3
	v["core.ga_simulations"] = float64(pr.res.Stats.Simulations)
	v["teta.ga_sim_us"] = sum(br.ga) * 1e6 / float64(br.sims)
	v["ssta.critical_block_frac"] = br.worst.Seconds() / pr.charWall.median()
}

// buildBlock characterizes one block's cell chain the way ssta does.
func buildBlock(cells []string, cfg ssta.Config) (*core.Path, time.Duration, error) {
	t0 := time.Now()
	p, err := core.BuildChain(core.ChainSpec{
		Cells: cells, Drive: cfg.Drive, ElemsBetween: cfg.Elems,
		WireLengthUm: float64(cfg.Elems) / 2, Variational: true,
		Tech: cfg.Tech, DT: cfg.DT, TStop: cfg.TStop, Order: cfg.Order,
	})
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("building block %v: %w", cells, err)
	}
	return p, d, nil
}

// blockModelError is the accuracy of block SSTA's delay model on the
// critical block: the mean relative difference, in percent, between the
// block's first-order GA model and a teta-fast waveform evaluation of
// the block, over linPoints directions at 2 sigma in the (DL, VT) plane
// whose rotation is drawn from the seed.
func blockModelError(res *ssta.Result, cfg ssta.Config, seed int64) (float64, error) {
	var cells []string
	for _, b := range res.Graph().Blocks {
		if b.Output == res.CriticalSink {
			cells = b.Cells
		}
	}
	if cells == nil {
		return 0, fmt.Errorf("no block drives the critical sink %s", res.CriticalSink)
	}
	p, _, err := buildBlock(cells, cfg)
	if err != nil {
		return 0, err
	}
	ga, err := p.GradientAnalysis(core.GAConfig{Sources: cfg.Sources})
	if err != nil {
		return 0, err
	}
	fast, err := p.Engine(core.EngineTetaFast)
	if err != nil {
		return 0, err
	}
	sc := fast.NewScratch()
	theta0 := rand.New(rand.NewSource(seed)).Float64() * 2 * math.Pi / linPoints
	var errs []float64
	for k := 0; k < linPoints; k++ {
		th := theta0 + 2*math.Pi*float64(k)/linPoints
		x := []float64{2 * cfg.Sources[0].Sigma * math.Cos(th), 2 * cfg.Sources[1].Sigma * math.Sin(th)}
		lin := ga.Mean
		for l, s := range cfg.Sources {
			lin += ga.Sensitivity[s.Name] * x[l]
		}
		ev, err := fast.EvalPath(sc, core.BuildRunSpec(cfg.Sources, x))
		if err != nil {
			return 0, fmt.Errorf("critical block at 2 sigma: %w", err)
		}
		errs = append(errs, 100*math.Abs(lin-ev.Delay)/ev.Delay)
	}
	return mean(errs), nil
}
