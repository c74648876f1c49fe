package ssta

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/iscas"
	"lcsim/internal/runner"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// MCSinkResult is one sink's brute-force Monte-Carlo arrival summary.
type MCSinkResult struct {
	Net     string       `json:"net"`
	Summary stat.Summary `json:"summary"`
}

// MCResult is the brute-force reference for an SSTA run: per-sink
// arrival distributions from full nonlinear per-block evaluation at
// every sample, plus the chip-level (max-over-sinks) distribution.
type MCResult struct {
	Sinks    []MCSinkResult     `json:"sinks"` // SinkBlocks order (block topological)
	Chip     stat.Summary       `json:"chip"`
	Stats    CharacterizeStats  `json:"stats"`
	Failures core.FailureReport `json:"failures"`
	TotalSC  int                `json:"total_sc"`
}

// SinkSummary returns the summary for a sink net ("" lookup miss returns
// false).
func (r *MCResult) SinkSummary(net string) (stat.Summary, bool) {
	for _, s := range r.Sinks {
		if s.Net == net {
			return s.Summary, true
		}
	}
	return stat.Summary{}, false
}

// sampleEval carries one sample's outcome through the sweep: the
// arrival at every sink (SinkBlocks order) and their max.
type sampleEval struct {
	arrivals []float64
	chip     float64
	sc       int
}

// mcPayload is the driver state inside an ssta-mc checkpoint snapshot: a
// prefix-consistent cut of every per-sink accumulator, the chip
// accumulator, the failure report and the cost counters.
type mcPayload struct {
	Sinks    []stat.StreamSummaryState `json:"sinks"`
	Chip     stat.StreamSummaryState   `json:"chip"`
	TotalSC  int                       `json:"total_sc"`
	Failures core.FailureReport        `json:"failures"`
	Metrics  runner.Snapshot           `json:"metrics"`
}

// mcFingerprint pins an ssta-mc run: resuming under a different circuit
// partition, sample plan, engine setup or source population refuses with
// checkpoint.ErrMismatch. The block-key list rides in Proposal so a
// changed netlist (different partition) cannot silently resume.
func mcFingerprint(c *iscas.Circuit, g *Graph, cfg Config, n int) checkpoint.Fingerprint {
	blocks := fnv.New64a()
	blocks.Write([]byte(strings.Join(g.DistinctKeys(), "\n")))
	return checkpoint.Fingerprint{
		Kind:     "ssta-mc",
		Seed:     cfg.Seed,
		N:        n,
		Sampler:  "lhs",
		Engine:   core.ResolveEngine(cfg.Engine),
		Ladder:   strings.Join(cfg.Ladder, ","),
		Policy:   cfg.OnFailure.String(),
		Sources:  sourcesHash(cfg.Sources),
		Proposal: fmt.Sprintf("circuit=%s blocks=%016x", c.Name, blocks.Sum64()),
	}
}

// RunMC estimates every sink's arrival distribution by brute force: per
// sample, each distinct block model is evaluated nonlinearly through the
// engine registry (one EvalPath per distinct cell chain — the
// content-keyed cache works per sample too), per-entry suffix delays are
// summed from the measured stage delays, and scalar arrivals propagate
// through the block graph with the exact max. The samples run through
// core.Sweep, so the embedded RunConfig applies in full and exactly as
// in the path drivers: workers/batching (bit-identical results at any
// count — accumulation happens on the ordered drain), OnFailure (a
// Degrade rung re-evaluates every block on the next engine), the
// SampleTimeout watchdog, cancellation and the checkpoint journal.
func RunMC(ctx context.Context, c *iscas.Circuit, cfg Config, n int) (*MCResult, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("ssta: MC needs n > 0")
	}
	g, err := Partition(c)
	if err != nil {
		return nil, err
	}
	models, stats, err := characterize(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	order := modelOrder(g, models)

	// Resolve the primary engine (and, under Degrade, the ladder) per
	// distinct model: engines bind to a path.
	engines := make([]core.Engine, len(order))
	for i, m := range order {
		if engines[i], err = m.Path.Engine(cfg.Engine); err != nil {
			return nil, err
		}
	}
	var ladders [][]core.Engine
	if cfg.OnFailure == core.Degrade {
		ladders = make([][]core.Engine, len(order))
		for i, m := range order {
			if ladders[i], err = m.Path.EngineLadder(engines[i], cfg.Ladder); err != nil {
				return nil, err
			}
		}
	}

	// The deterministic sample plan: LHS rows over the sources,
	// materialized once (the permutations couple all n rows).
	dists := make([]stat.Dist, len(cfg.Sources))
	for i, s := range cfg.Sources {
		dists[i] = s.SampleDist()
	}
	cube := stat.LatinHypercube(stat.NewRNG(cfg.Seed), n, len(cfg.Sources))
	rowSpec := func(i int) teta.RunSpec {
		vals := make([]float64, len(dists))
		for j := range vals {
			vals[j] = dists[j].Quantile(cube[i][j])
		}
		return core.BuildRunSpec(cfg.Sources, vals)
	}

	// evalModels returns the sweep evaluation of all distinct blocks at
	// one sample through the given per-model engines: it propagates the
	// arrivals, using the worker's per-model scratch when it has one.
	evalModels := func(engs []core.Engine, newScratch func() any) core.Evaluator[sampleEval] {
		return core.Evaluator[sampleEval]{
			Name:       engs[0].Name(),
			NewScratch: newScratch,
			Eval: func(_ context.Context, i int, sc any) (sampleEval, error) {
				scratch, _ := sc.([]*core.PathScratch)
				return evalSample(g, order, engs, scratch, rowSpec(i), cfg.Metrics)
			},
		}
	}
	primary := evalModels(engines, func() any {
		out := make([]*core.PathScratch, len(order))
		for mi, m := range order {
			out[mi] = m.Path.NewScratch()
		}
		return out
	})
	// Degrade re-evaluates the whole sample — every distinct block — on
	// each ladder rung every model can build, in ascending cost order.
	var ladder []core.Evaluator[sampleEval]
	for r := 0; len(ladders) > 0 && r < len(ladders[0]); r++ {
		rung := make([]core.Engine, len(order))
		for mi := range order {
			if r >= len(ladders[mi]) {
				rung = nil
				break
			}
			rung[mi] = ladders[mi][r]
		}
		if rung == nil {
			break
		}
		ladder = append(ladder, evalModels(rung, nil))
	}

	res := &MCResult{Stats: stats}
	sinkStreams := make([]*stat.StreamSummary, len(g.SinkBlocks))
	for i := range sinkStreams {
		sinkStreams[i] = stat.NewStreamSummary()
	}
	chipStream := stat.NewStreamSummary()
	sw := &core.Sweep[sampleEval]{
		Primary:  primary,
		Ladder:   ladder,
		Failures: &res.Failures,
		Deliver: func(_ int, v sampleEval) {
			for k, a := range v.arrivals {
				sinkStreams[k].Add(a)
			}
			chipStream.Add(v.chip)
			res.TotalSC += v.sc
		},
		Fingerprint: mcFingerprint(c, g, cfg, n),
		Save: func(_ int, m runner.Snapshot) any {
			st := mcPayload{
				Chip:     chipStream.State(),
				TotalSC:  res.TotalSC,
				Failures: res.Failures,
				Metrics:  m,
			}
			for _, s := range sinkStreams {
				st.Sinks = append(st.Sinks, s.State())
			}
			return st
		},
		Restore: func(state json.RawMessage) (runner.Snapshot, error) {
			var st mcPayload
			if err := json.Unmarshal(state, &st); err != nil {
				return runner.Snapshot{}, err
			}
			if len(st.Sinks) != len(sinkStreams) {
				return runner.Snapshot{}, fmt.Errorf("snapshot has %d sinks, run has %d", len(st.Sinks), len(sinkStreams))
			}
			for i := range sinkStreams {
				sinkStreams[i].Restore(st.Sinks[i])
			}
			chipStream.Restore(st.Chip)
			res.TotalSC = st.TotalSC
			res.Failures = st.Failures
			return st.Metrics, nil
		},
	}
	if _, err := sw.Start(cfg.RunConfig); err != nil {
		return nil, err
	}
	if err := sw.Run(ctx, n); err != nil {
		return nil, err
	}
	for k, bi := range g.SinkBlocks {
		res.Sinks = append(res.Sinks, MCSinkResult{
			Net:     g.Blocks[bi].Output,
			Summary: sinkStreams[k].Summary(),
		})
	}
	res.Chip = chipStream.Summary()
	return res, nil
}

// evalSample evaluates every distinct block model at sample rs through
// its engine (with the worker's scratch when it has one), sums per-entry
// suffix delays from the measured stage delays and propagates scalar
// arrivals through the block graph with the exact max.
func evalSample(g *Graph, order []*BlockModel, engs []core.Engine, scratch []*core.PathScratch, rs teta.RunSpec, m *runner.Metrics) (sampleEval, error) {
	suffix := make([][]float64, len(order))
	sc := 0
	for mi, bm := range order {
		var ev *core.PathEval
		var err error
		if scratch != nil {
			ev, err = engs[mi].EvalPath(scratch[mi], rs)
		} else {
			ev, err = engs[mi].EvalPath(nil, rs)
		}
		if err != nil {
			return sampleEval{}, fmt.Errorf("block %q: %w", bm.Key, err)
		}
		sc += ev.SCIters
		m.Add(runner.SCIterations, int64(ev.SCIters))
		m.Add(runner.LinearSolves, int64(ev.LinearSolves))
		m.Add(runner.StageEvals, int64(len(bm.Path.Stages)))
		// Suffix sums: delay from stage j's input to the block output.
		suf := make([]float64, len(ev.StageDelays))
		acc := 0.0
		for j := len(ev.StageDelays) - 1; j >= 0; j-- {
			acc += ev.StageDelays[j]
			suf[j] = acc
		}
		suffix[mi] = suf
	}
	modelIdx := map[string]int{}
	for mi, bm := range order {
		modelIdx[bm.Key] = mi
	}
	arr := map[string]float64{}
	for _, b := range g.Blocks {
		suf := suffix[modelIdx[b.Key]]
		out := 0.0
		for k, e := range b.Entries {
			cand := arr[e.Net] + suf[e.Stage] // absent nets are sources: arrival 0
			if k == 0 || cand > out {
				out = cand
			}
		}
		arr[b.Output] = out
	}
	se := sampleEval{arrivals: make([]float64, len(g.SinkBlocks)), sc: sc}
	for k, bi := range g.SinkBlocks {
		a := arr[g.Blocks[bi].Output]
		se.arrivals[k] = a
		if k == 0 || a > se.chip {
			se.chip = a
		}
	}
	return se, nil
}
