package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"lcsim/internal/checkpoint"
	"lcsim/internal/runner"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// PathPair analyzes the arrival-time difference (skew) between two paths
// launched from the same point — the clock-distribution application of
// the variational interconnect models (the paper's refs. [2], [3]).
// Shared sources (e.g. global wire geometry) move both branches
// coherently and largely cancel in the skew; independent sources (local
// device variations) are drawn separately per branch and add in
// quadrature.
type PathPair struct {
	A, B *Path
	// Shared sources apply the same sampled value to both branches.
	Shared []Source
	// IndependentA/B are drawn separately for each branch.
	IndependentA []Source
	IndependentB []Source
}

// SkewConfig configures Monte-Carlo skew analysis. The embedded
// RunConfig carries the execution policy shared with MCConfig (Seed,
// Workers, BatchSize, Metrics, Progress, OnFailure, Engine, Ladder,
// Checkpoint, SampleTimeout); a skipped sample drops BOTH branch
// arrivals, keeping the skew pairing aligned, and the Degrade ladder
// walks engines both branches can build, paired by name.
type SkewConfig struct {
	RunConfig

	N int
}

// SkewResult holds the Monte-Carlo skew outcome.
type SkewResult struct {
	Skews    []float64 // arrival(A) − arrival(B), per sample
	ArrivalA stat.Summary
	ArrivalB stat.Summary
	Skew     stat.Summary
	// RSS is the root-sum-square of the branch σs, the spread an analysis
	// that ignores shared-source correlation would predict.
	RSS float64
	// Failures reports per-sample failures handled by the Skip/Degrade
	// policies; skipped samples appear in neither branch's statistics.
	Failures FailureReport
}

// pairDelay carries both branch arrivals for one sample.
type pairDelay struct {
	a, b float64
}

// MonteCarloSkewCtx samples the pair jointly on the parallel runtime:
// shared values are reused across branches, independent values drawn per
// branch. Results are bit-identical at any worker count for a fixed Seed.
func (pp *PathPair) MonteCarloSkewCtx(ctx context.Context, cfg SkewConfig) (*SkewResult, error) {
	if pp.A == nil || pp.B == nil {
		return nil, fmt.Errorf("core: PathPair needs both paths")
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("core: skew MC needs n > 0")
	}
	for _, group := range [][]Source{pp.Shared, pp.IndependentA, pp.IndependentB} {
		for _, s := range group {
			if err := s.Validate(); err != nil {
				return nil, err
			}
		}
	}
	dim := len(pp.Shared) + len(pp.IndependentA) + len(pp.IndependentB)
	if dim == 0 {
		return nil, fmt.Errorf("core: skew MC needs at least one source")
	}
	cube := stat.LatinHypercube(stat.NewRNG(cfg.Seed), cfg.N, dim)
	dists := make([]stat.Dist, 0, dim)
	for _, group := range [][]Source{pp.Shared, pp.IndependentA, pp.IndependentB} {
		for _, s := range group {
			dists = append(dists, s.dist())
		}
	}
	samples := stat.SamplePlan(cube, dists)

	// buildSpecs maps sample i's row to both branch RunSpecs: shared
	// sources apply the same value to both, independent sources their own.
	buildSpecs := func(i int) (rsA, rsB teta.RunSpec) {
		row := samples[i]
		ns := len(pp.Shared)
		na := len(pp.IndependentA)
		for k, s := range pp.Shared {
			s.Apply(&rsA, row[k])
			s.Apply(&rsB, row[k])
		}
		for k, s := range pp.IndependentA {
			s.Apply(&rsA, row[ns+k])
		}
		for k, s := range pp.IndependentB {
			s.Apply(&rsB, row[ns+na+k])
		}
		return rsA, rsB
	}

	// pairEval evaluates both branches at one sample through one engine
	// pair; its scratch holds one engine scratch per branch.
	type pairScratch struct{ a, b any }
	pairEval := func(ea, eb Engine) Evaluator[pairDelay] {
		return Evaluator[pairDelay]{
			Name:       ea.Name(),
			NewScratch: func() any { return &pairScratch{a: ea.NewScratch(), b: eb.NewScratch()} },
			Eval: func(_ context.Context, i int, sc any) (pairDelay, error) {
				ps := sc.(*pairScratch)
				rsA, rsB := buildSpecs(i)
				da, err := ea.EvalPath(ps.a, rsA)
				if err != nil {
					return pairDelay{}, fmt.Errorf("branch A: %w", err)
				}
				db, err := eb.EvalPath(ps.b, rsB)
				if err != nil {
					return pairDelay{}, fmt.Errorf("branch B: %w", err)
				}
				cfg.Metrics.AddSC(da.SCIters + db.SCIters)
				cfg.Metrics.AddSolves(da.LinearSolves + db.LinearSolves)
				cfg.Metrics.AddStageEvals(len(pp.A.Stages) + len(pp.B.Stages))
				return pairDelay{a: da.Delay, b: db.Delay}, nil
			},
		}
	}

	eA, err := pp.A.Engine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	eB, err := pp.B.Engine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	// The Degrade ladder walks both branches in lockstep: rungs are paired
	// by engine name so a recovered sample's arrivals come from the same
	// backend. With default ladders an engine only one branch can build
	// (e.g. spice-golden for a hand-assembled pair) drops out of the walk.
	var ladder []Evaluator[pairDelay]
	if cfg.OnFailure == Degrade {
		ladA, err := pp.A.EngineLadder(eA, cfg.Ladder)
		if err != nil {
			return nil, err
		}
		ladB, err := pp.B.EngineLadder(eB, cfg.Ladder)
		if err != nil {
			return nil, err
		}
		byName := map[string]Engine{}
		for _, e := range ladB {
			byName[e.Name()] = e
		}
		for _, ea := range ladA {
			if eb, ok := byName[ea.Name()]; ok {
				ladder = append(ladder, pairEval(ea, eb))
			}
		}
	}

	res := &SkewResult{Skews: make([]float64, 0, cfg.N)}
	as := make([]float64, 0, cfg.N)
	bs := make([]float64, 0, cfg.N)
	sw := &Sweep[pairDelay]{
		Primary:  pairEval(eA, eB),
		Ladder:   ladder,
		Failures: &res.Failures,
		Deliver: func(_ int, d pairDelay) {
			as = append(as, d.a)
			bs = append(bs, d.b)
			res.Skews = append(res.Skews, d.a-d.b)
		},
		// The journal payload is the delivered prefix of both branch
		// arrival lists plus the failure/cost counters.
		Fingerprint: checkpoint.Fingerprint{
			Kind:    "skew",
			Seed:    cfg.Seed,
			N:       cfg.N,
			Sampler: SamplerLHS.String(), // skew always samples jointly via LHS
			Engine:  eA.Name(),
			Ladder:  strings.Join(cfg.Ladder, ","),
			Policy:  cfg.OnFailure.String(),
			Sources: sourcesHash(pp.Shared, pp.IndependentA, pp.IndependentB),
		},
		Save: func(_ int, m runner.Snapshot) any {
			return skewPayload{A: as, B: bs, Skews: res.Skews, Failures: res.Failures, Metrics: m}
		},
		Restore: func(state json.RawMessage) (runner.Snapshot, error) {
			var st skewPayload
			if err := json.Unmarshal(state, &st); err != nil {
				return runner.Snapshot{}, err
			}
			as = append(as, st.A...)
			bs = append(bs, st.B...)
			res.Skews = append(res.Skews, st.Skews...)
			res.Failures = st.Failures
			return st.Metrics, nil
		},
	}
	if _, err := sw.Start(cfg.RunConfig); err != nil {
		return nil, err
	}
	if err := sw.Run(ctx, cfg.N); err != nil {
		return nil, err
	}
	res.ArrivalA = stat.Summarize(as)
	res.ArrivalB = stat.Summarize(bs)
	res.Skew = stat.Summarize(res.Skews)
	res.RSS = rss(res.ArrivalA.Std, res.ArrivalB.Std)
	return res, nil
}

func rss(a, b float64) float64 {
	return math.Sqrt(a*a + b*b)
}
