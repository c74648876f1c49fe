package ssta

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/runner"
)

// BlockModel is one characterized block macromodel: the BuildChain path
// (shared by every block with the same cell sequence) plus its
// gradient-analysis linearization with per-stage cumulative arrays, from
// which suffix delay models for every entry stage are formed.
type BlockModel struct {
	Key   string
	Cells []string
	Path  *core.Path
	GA    *core.GAResult

	// suffix delay models, sigma-scaled, indexed by entry stage:
	// suffixMean[j] is the mean delay from stage j's input to the block
	// output, suffixSens[j][l] = σ_l·∂/∂x_l of that delay.
	suffixMean []float64
	suffixSens [][]float64
}

// buildSuffix precomputes the per-entry-stage suffix models from the
// GA's cumulative arrays: delay from stage j = Total − Cum[j−1].
func (m *BlockModel) buildSuffix(sources []core.Source) {
	n := len(m.GA.StageCumMean)
	last := n - 1
	m.suffixMean = make([]float64, n)
	m.suffixSens = make([][]float64, n)
	for j := 0; j < n; j++ {
		prevMean := 0.0
		if j > 0 {
			prevMean = m.GA.StageCumMean[j-1]
		}
		m.suffixMean[j] = m.GA.StageCumMean[last] - prevMean
		row := make([]float64, len(sources))
		for l, s := range sources {
			prev := 0.0
			if j > 0 {
				prev = m.GA.StageCumSens[j-1][l]
			}
			row[l] = (m.GA.StageCumSens[last][l] - prev) * s.Sigma
		}
		m.suffixSens[j] = row
	}
}

// CharacterizeStats reports the characterization economics: how many
// blocks the partition produced, how many distinct macromodels were
// actually built, how many blocks rode a cache hit, and how many stage
// characterizations the distinct blocks needed. Stages and Wall describe
// the work, not the statistical result, so they stay out of the
// serialized summary: two runs of one spec serialize identically.
type CharacterizeStats struct {
	Blocks      int           `json:"blocks"`
	Distinct    int           `json:"distinct"`
	CacheHits   int           `json:"cache_hits"`
	Simulations int           `json:"simulations"` // stage simulations spent by GA
	Stages      int           `json:"-"`           // stage characterizations run
	Wall        time.Duration `json:"-"`
}

// characterize builds one macromodel per distinct block key, fanned out
// across the runner pool under the shared RunConfig (workers/batching
// apply; characterization is deterministic per key, so the model set is
// identical at any worker count). Repeated cell chains share one model —
// the content-keyed cache the ROADMAP asks for — and every block
// characterizes through one run-scoped core.StageMemo, so each distinct
// stage is characterized once too. Blocks are handed out longest first
// (ties in first-seen order), so the longest does not start last.
func characterize(ctx context.Context, g *Graph, cfg Config) (map[string]*BlockModel, CharacterizeStats, error) {
	keys := g.DistinctKeys()
	stats := CharacterizeStats{
		Blocks:   len(g.Blocks),
		Distinct: len(keys),
	}
	stats.CacheHits = stats.Blocks - stats.Distinct
	cellsByKey := map[string][]string{}
	for _, b := range g.Blocks {
		if _, ok := cellsByKey[b.Key]; !ok {
			cellsByKey[b.Key] = b.Cells
		}
	}
	sort.SliceStable(keys, func(i, j int) bool { return len(cellsByKey[keys[i]]) > len(cellsByKey[keys[j]]) })

	t0 := time.Now()
	memo := &core.StageMemo{}
	models := make([]*BlockModel, len(keys))
	opts := runner.Options{
		Workers:   cfg.Workers,
		BatchSize: 1, // blocks are few and heavy; balance load
		Metrics:   cfg.Metrics,
	}
	err := runner.Map(ctx, len(keys), opts, func(ctx context.Context, i int) (*BlockModel, error) {
		key := keys[i]
		cells := cellsByKey[key]
		p, err := core.BuildChain(core.ChainSpec{
			Cells:        cells,
			Drive:        cfg.Drive,
			ElemsBetween: cfg.Elems,
			WireLengthUm: cfg.wireLengthUm(),
			Variational:  true,
			Tech:         cfg.Tech,
			DT:           cfg.DT,
			TStop:        cfg.TStop,
			Order:        cfg.Order,
			MacroCache:   cfg.MacroCache,
			Memo:         memo,
		})
		if err != nil {
			return nil, fmt.Errorf("ssta: characterizing block %q: %w", key, err)
		}
		ga, err := p.GradientAnalysis(core.GAConfig{
			Sources: cfg.Sources,
			Metrics: cfg.Metrics,
			Engine:  cfg.Engine,
		})
		if err != nil {
			return nil, fmt.Errorf("ssta: gradient analysis of block %q: %w", key, err)
		}
		m := &BlockModel{Key: key, Cells: cells, Path: p, GA: ga}
		m.buildSuffix(cfg.Sources)
		return m, nil
	}, func(i int, m *BlockModel) {
		models[i] = m
	})
	if err != nil {
		return nil, stats, err
	}
	stats.Wall = time.Since(t0)
	stats.Stages = memo.Stages()
	out := make(map[string]*BlockModel, len(models))
	for _, m := range models {
		stats.Simulations += m.GA.Simulations
		out[m.Key] = m
	}
	return out, stats, nil
}

// modelOrder returns the distinct models in deterministic (first-seen
// key) order — the per-sample evaluation list of the MC reference.
func modelOrder(g *Graph, models map[string]*BlockModel) []*BlockModel {
	keys := g.DistinctKeys()
	out := make([]*BlockModel, len(keys))
	for i, k := range keys {
		out[i] = models[k]
	}
	return out
}

// sourcesHash digests the variation-source list for the checkpoint
// fingerprint (same fields as core's: a resumed run must sample the
// exact same population).
func sourcesHash(sources []core.Source) string {
	h := fnv.New64a()
	for _, s := range sources {
		fmt.Fprintf(h, "%s|%g|%v|%s|%t|%t;", s.Name, s.Sigma, s.Dist, s.Wire, s.IsDL, s.IsDVT)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
