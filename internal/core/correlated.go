package core

import (
	"context"
	"fmt"

	"lcsim/internal/mat"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// CorrelatedSources models a correlated population of variation sources
// through a PCA factorization (§4.1.1): sampling happens in the compact,
// uncorrelated factor space and the by-product reverse transformation
// recovers the physical source values. This is how the paper proposes
// handling the ~60 correlated BSIM parameters with ~10 factors.
type CorrelatedSources struct {
	Sources []Source // the physical sources (their Sigma fields are ignored)
	pca     *stat.PCA
	factors int
}

// NewCorrelatedSources builds the factor model from a covariance matrix
// over the sources (in their natural units). fraction selects how much
// variance the retained factors must explain (e.g. 0.95).
func NewCorrelatedSources(sources []Source, cov *mat.Dense, fraction float64) (*CorrelatedSources, error) {
	if cov.Rows() != len(sources) || cov.Cols() != len(sources) {
		return nil, fmt.Errorf("core: covariance is %dx%d for %d sources", cov.Rows(), cov.Cols(), len(sources))
	}
	for _, s := range sources {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	mean := make([]float64, len(sources))
	p, err := stat.FitPCACov(mean, cov)
	if err != nil {
		return nil, err
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 0.95
	}
	nf := p.NumFactors(fraction)
	if nf < 1 {
		nf = 1
	}
	return &CorrelatedSources{Sources: sources, pca: p, factors: nf}, nil
}

// NumFactors reports the retained factor count.
func (c *CorrelatedSources) NumFactors() int { return c.factors }

// RunSpecFromFactors maps standard-normal factor scores (length
// NumFactors) to a RunSpec through the inverse PCA transform.
func (c *CorrelatedSources) RunSpecFromFactors(z []float64) (teta.RunSpec, error) {
	if len(z) != c.factors {
		return teta.RunSpec{}, fmt.Errorf("core: got %d factor scores, want %d", len(z), c.factors)
	}
	values := c.pca.Inverse(z)
	return BuildRunSpec(c.Sources, values), nil
}

// MonteCarloCorrelatedCtx runs path Monte-Carlo sampling in factor space
// through the same Sweep as MonteCarloCtx: the run honors the
// full MCConfig — sampler plan, worker count, streaming vs KeepSamples,
// engine selection, metrics and the OnFailure policy with its engine
// ladder — and is bit-identical at any worker count.
//
// cfg.Sources is ignored (the physical sources and their covariance live
// in cs); when KeepSamples is set, MCResult.Samples rows hold the
// standard-normal factor scores, not physical source values.
func (p *Path) MonteCarloCorrelatedCtx(ctx context.Context, cs *CorrelatedSources, cfg MCConfig) (*MCResult, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("core: MC needs N > 0")
	}
	dists := make([]stat.Dist, cs.factors)
	for i := range dists {
		dists[i] = stat.Normal{Mean: 0, Sigma: 1}
	}
	row := rowGen(cfg, cfg.sampler(), dists)
	fp := mcFingerprint("mc-correlated", cfg,
		fmt.Sprintf("%s/f%d", sourcesHash(cs.Sources), cs.factors))
	return p.runMonteCarlo(ctx, cfg, fp, row, cs.RunSpecFromFactors)
}
