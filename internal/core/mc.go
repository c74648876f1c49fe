package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"lcsim/internal/checkpoint"
	"lcsim/internal/runner"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// Sampler selects the unit-cube sampling plan for Monte-Carlo analysis.
type Sampler int

const (
	// SamplerDefault resolves to SamplerLHS, the paper's Example-2 plan.
	SamplerDefault Sampler = iota
	// SamplerLHS is Latin Hypercube sampling (variance-reduced; the plan
	// is a joint permutation over all N rows, derived from Seed).
	SamplerLHS
	// SamplerHalton is the deterministic low-discrepancy Halton sequence
	// (a pure function of the sample index; Seed is ignored).
	SamplerHalton
	// SamplerPseudo is plain pseudo-random sampling with a per-index
	// stream derived from Seed, so any worker can generate any row.
	SamplerPseudo
)

// String names the sampler as accepted by ParseSampler.
func (s Sampler) String() string {
	switch s {
	case SamplerHalton:
		return "halton"
	case SamplerPseudo:
		return "pseudo"
	default:
		return "lhs"
	}
}

// ParseSampler maps a name ("lhs", "halton", "pseudo") to a Sampler.
func ParseSampler(name string) (Sampler, error) {
	switch name {
	case "", "lhs":
		return SamplerLHS, nil
	case "halton":
		return SamplerHalton, nil
	case "pseudo":
		return SamplerPseudo, nil
	}
	return SamplerDefault, fmt.Errorf("core: unknown sampler %q (want lhs, halton or pseudo)", name)
}

// MCConfig configures Monte-Carlo path-delay analysis (§4.3.1). The
// embedded RunConfig carries the execution policy shared by every
// statistical driver — Seed, Workers, BatchSize, Metrics, Progress,
// OnFailure, Engine, Ladder, Checkpoint, SampleTimeout.
type MCConfig struct {
	RunConfig

	N       int
	Sources []Source
	// Sampler selects the sampling plan; the zero value means LHS.
	Sampler Sampler
	// KeepSamples materializes per-sample rows: MCResult.Delays and
	// MCResult.Samples are only populated when it is set. When false the
	// run streams — Summary comes from online accumulators (exact
	// moments + P² quantiles) and memory stays O(1) in N.
	KeepSamples bool

	// injectFault, when non-nil, can fail sample i's primary evaluation
	// with the returned error (nil → evaluate normally). It intercepts
	// only the primary path, so a Degrade retry still exercises the real
	// engine-ladder rungs. Test hook; unexported on purpose.
	injectFault func(i int) error
}

// sampler resolves the Sampler field (the zero value means LHS, the
// paper's Example-2 plan).
func (cfg MCConfig) sampler() Sampler {
	if cfg.Sampler != SamplerDefault {
		return cfg.Sampler
	}
	return SamplerLHS
}

// MCResult holds the Monte-Carlo outcome.
type MCResult struct {
	// Delays and Samples are populated only when MCConfig.KeepSamples is
	// set; streaming runs keep neither.
	Delays  []float64
	Samples [][]float64
	Summary stat.Summary
	// TotalSC counts successive-chord iterations across all runs (a cost
	// proxy that needs no wall clock).
	TotalSC int
	// Failures reports per-sample failures handled by the Skip/Degrade
	// policies (empty — Failures.Any() == false — for a clean run).
	// Skipped samples are excluded from Summary, Delays and Samples.
	Failures FailureReport
}

// Correlations returns the Spearman rank correlation between each source's
// sampled values and the resulting delays — a cheap post-hoc sensitivity
// screen complementing Gradient Analysis (it needs no extra simulations).
//
// It needs the per-sample rows, which streaming runs discard: a run must
// set MCConfig.KeepSamples (and have at least 3 samples) or an error is
// returned.
func (r *MCResult) Correlations(sources []Source) (map[string]float64, error) {
	if len(r.Delays) == 0 || len(r.Samples) == 0 {
		return nil, fmt.Errorf("core: Correlations needs per-sample rows, but this result has none — run with MCConfig.KeepSamples set (streaming runs keep only the online summary)")
	}
	if len(r.Samples) != len(r.Delays) {
		return nil, fmt.Errorf("core: Correlations: %d sample rows but %d delays", len(r.Samples), len(r.Delays))
	}
	if len(r.Delays) < 3 {
		return nil, fmt.Errorf("core: Correlations needs at least 3 samples, got %d", len(r.Delays))
	}
	out := map[string]float64{}
	dRank := ranks(r.Delays)
	for j, s := range sources {
		col := make([]float64, len(r.Samples))
		for i, row := range r.Samples {
			if j < len(row) {
				col[i] = row[j]
			}
		}
		out[s.Name] = pearson(ranks(col), dRank)
	}
	return out, nil
}

// ranks returns average ranks (1-based) of the values.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by value (n is a sample count, typically ≤ a few hundred).
	for i := 1; i < n; i++ {
		for k := i; k > 0 && xs[idx[k]] < xs[idx[k-1]]; k-- {
			idx[k], idx[k-1] = idx[k-1], idx[k]
		}
	}
	out := make([]float64, n)
	for r, i := range idx {
		out[i] = float64(r + 1)
	}
	return out
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(vb))
}

// mcEval carries one sample's outcome through the sweep.
type mcEval struct {
	delay  float64
	sc     int
	sample []float64
}

// pathEvaluators resolves the primary engine (and, under Degrade, the
// engine ladder) into the sweep evaluators shared by every path driver
// — plain MC, correlated MC and IS yield — which differ only in how
// sample rows are generated and how delivered evaluations aggregate.
// row generates sample i's (transformed) source values, spec maps them
// to a RunSpec, and inject (a test hook, may be nil) can fail a primary
// evaluation; a Degrade retry still exercises the real rungs.
func (p *Path) pathEvaluators(cfg RunConfig, row func(i int) []float64, spec func(sv []float64) (teta.RunSpec, error), inject func(i int) error) (Evaluator[mcEval], []Evaluator[mcEval], error) {
	engine, err := p.Engine(cfg.Engine)
	if err != nil {
		return Evaluator[mcEval]{}, nil, err
	}
	var ladder []Evaluator[mcEval]
	if cfg.OnFailure == Degrade {
		rungs, err := p.EngineLadder(engine, cfg.Ladder)
		if err != nil {
			return Evaluator[mcEval]{}, nil, err
		}
		for _, rung := range rungs {
			ladder = append(ladder, p.pathEvaluator(rung, cfg.Metrics, row, spec, nil))
		}
	}
	return p.pathEvaluator(engine, cfg.Metrics, row, spec, inject), ladder, nil
}

// pathEvaluator evaluates one path sample through eng, charging the
// shared cost counters on success.
func (p *Path) pathEvaluator(eng Engine, m *runner.Metrics, row func(i int) []float64, spec func(sv []float64) (teta.RunSpec, error), inject func(i int) error) Evaluator[mcEval] {
	return Evaluator[mcEval]{
		Name:       eng.Name(),
		NewScratch: eng.NewScratch,
		Eval: func(_ context.Context, i int, sc any) (mcEval, error) {
			sv := row(i)
			rs, err := spec(sv)
			if err != nil {
				return mcEval{}, err
			}
			if inject != nil {
				if err := inject(i); err != nil {
					return mcEval{}, err
				}
			}
			ev, err := eng.EvalPath(sc, rs)
			if err != nil {
				return mcEval{}, err
			}
			m.Add(runner.SCIterations, int64(ev.SCIters))
			m.Add(runner.LinearSolves, int64(ev.LinearSolves))
			m.Add(runner.StageEvals, int64(len(p.Stages)))
			return mcEval{delay: ev.Delay, sc: ev.SCIters, sample: sv}, nil
		},
	}
}

// rowGen returns a deterministic per-index generator of transformed
// sample rows. LHS precomputes its joint plan (the permutations couple
// all N rows); Halton and pseudo are pure per-index functions, so no plan
// is materialized. In every case row i is independent of which worker —
// and how many workers — evaluate the run.
func rowGen(cfg MCConfig, sampler Sampler, dists []stat.Dist) func(i int) []float64 {
	d := len(dists)
	if d == 0 {
		return func(int) []float64 { return nil }
	}
	var cube [][]float64
	if sampler == SamplerLHS {
		cube = stat.LatinHypercube(stat.NewRNG(cfg.Seed), cfg.N, d)
	}
	return func(i int) []float64 {
		row := make([]float64, d)
		switch sampler {
		case SamplerLHS:
			copy(row, cube[i])
		case SamplerHalton:
			for j := range row {
				row[j] = stat.HaltonAt(i, j)
			}
		default: // SamplerPseudo
			rng := stat.NewRNG(runner.IndexSeed(cfg.Seed, i))
			for j := range row {
				u := rng.Float64()
				if u == 0 {
					u = 0.5 / float64(cfg.N*cfg.N+1)
				}
				row[j] = u
			}
		}
		for j := range row {
			row[j] = dists[j].Quantile(row[j])
		}
		return row
	}
}

// MonteCarloCtx estimates the path-delay distribution by full
// stage-by-stage simulation per sample, evaluated on a chunked worker
// pool. The variational interconnect library is characterized once (at
// BuildChain time); each sample costs only a library evaluation plus the
// SC transient — the framework's headline efficiency claim.
//
// The run is reproducible: for a fixed Seed the Summary is bit-identical
// at any worker count. Canceling ctx aborts between samples and returns
// ctx.Err() wrapped with the sample index reached.
func (p *Path) MonteCarloCtx(ctx context.Context, cfg MCConfig) (*MCResult, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("core: MC needs N > 0")
	}
	for _, s := range cfg.Sources {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	dists := make([]stat.Dist, len(cfg.Sources))
	for i, s := range cfg.Sources {
		dists[i] = s.SampleDist()
	}
	row := rowGen(cfg, cfg.sampler(), dists)
	fp := mcFingerprint("mc", cfg, sourcesHash(cfg.Sources))
	return p.runMonteCarlo(ctx, cfg, fp, row, func(sv []float64) (teta.RunSpec, error) {
		return BuildRunSpec(cfg.Sources, sv), nil
	})
}

// runMonteCarlo is the sweep shared by the independent-source
// (MonteCarloCtx) and correlated (MonteCarloCorrelatedCtx) drivers:
// streaming (or KeepSamples) aggregation of the delivered delays, the
// journal payload, and the skip-compaction post-pass. row generates the
// (already transformed) sample row for an index; spec maps a row to a
// RunSpec.
func (p *Path) runMonteCarlo(ctx context.Context, cfg MCConfig, fp checkpoint.Fingerprint, row func(i int) []float64, spec func(sv []float64) (teta.RunSpec, error)) (*MCResult, error) {
	primary, ladder, err := p.pathEvaluators(cfg.RunConfig, row, spec, cfg.injectFault)
	if err != nil {
		return nil, err
	}

	res := &MCResult{}
	stream := stat.NewStreamSummary()
	if cfg.KeepSamples {
		res.Delays = make([]float64, cfg.N)
		res.Samples = make([][]float64, cfg.N)
	}

	// Without a checkpoint the moment half of the stream is sharded: each
	// worker accumulates its own exact stat.Moments and the shards merge
	// after the sweep — bit-identical to drain-side accumulation because
	// exact-sum merging is order-independent, and free of the per-value
	// serialization the single drain-side accumulator imposes. Only the
	// order-sensitive P² quantiles stay on the ordered drain. A
	// checkpointed run keeps everything on the drain so every snapshot
	// cut sees exactly the delivered prefix.
	sharded := cfg.Checkpoint == nil
	var (
		shardMu sync.Mutex
		shards  []*stat.Moments
	)
	sw := &Sweep[mcEval]{
		Primary:  primary,
		Ladder:   ladder,
		Failures: &res.Failures,
		Deliver: func(i int, v mcEval) {
			if sharded {
				stream.AddQuantiles(v.delay)
			} else {
				stream.Add(v.delay)
			}
			res.TotalSC += v.sc
			if cfg.KeepSamples {
				res.Delays[i] = v.delay
				res.Samples[i] = v.sample
			}
		},
		Fingerprint: fp,
		Save: func(next int, m runner.Snapshot) any {
			st := mcPayload{Stream: stream.State(), TotalSC: res.TotalSC, Failures: res.Failures, Metrics: m}
			if cfg.KeepSamples {
				st.Delays = res.Delays[:next]
				st.Samples = res.Samples[:next]
			}
			return st
		},
		Restore: func(state json.RawMessage) (runner.Snapshot, error) {
			var st mcPayload
			if err := json.Unmarshal(state, &st); err != nil {
				return runner.Snapshot{}, err
			}
			stream.Restore(st.Stream)
			res.TotalSC = st.TotalSC
			res.Failures = st.Failures
			if cfg.KeepSamples {
				copy(res.Delays, st.Delays)
				copy(res.Samples, st.Samples)
			}
			return st.Metrics, nil
		},
	}
	if sharded {
		sw.NewShard = func() func(mcEval) {
			sh := new(stat.Moments)
			shardMu.Lock()
			shards = append(shards, sh)
			shardMu.Unlock()
			return func(v mcEval) { sh.Add(v.delay) }
		}
	}
	if _, err := sw.Start(cfg.RunConfig); err != nil {
		return nil, err
	}
	if err := sw.Run(ctx, cfg.N); err != nil {
		return nil, err
	}
	// All workers have returned, so the shards are quiescent; exact
	// merging makes the fold order irrelevant to the resulting bits. A run
	// that failed discarded its result wholesale above, so shard adds for
	// never-delivered values are harmless.
	for _, sh := range shards {
		stream.MergeMoments(sh)
	}
	if cfg.KeepSamples {
		if len(res.Failures.SkippedIndices) > 0 {
			res.Delays = compactSkipped(res.Delays, res.Failures.SkippedIndices)
			res.Samples = compactSkipped(res.Samples, res.Failures.SkippedIndices)
		}
		res.Summary = stat.Summarize(res.Delays)
	} else {
		res.Summary = stream.Summary()
	}
	return res, nil
}

// compactSkipped removes the rows at the (ascending) skipped indices,
// preserving the order of the survivors.
func compactSkipped[T any](rows []T, skipped []int) []T {
	out := rows[:0]
	k := 0
	for i := range rows {
		if k < len(skipped) && skipped[k] == i {
			k++
			continue
		}
		out = append(out, rows[i])
	}
	return out
}
