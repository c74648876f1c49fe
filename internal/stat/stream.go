package stat

// StreamSummary is the streaming statistics sink used by the Monte-Carlo
// and importance-sampling runtimes when samples are not materialized:
// exact order-independent moments (Moments: count, min/max, exact
// Σw/Σw²/Σwx/Σwx²) plus P² estimators for the median and the 5th/95th
// percentiles of the weighted distribution. A plain run feeds it
// through Add, an importance-sampled one through AddWeighted with each
// sample's likelihood ratio. Feed it in a deterministic order (the
// runner's ordered sink) and the resulting Summary is bit-identical at
// any worker count.
//
// The moment half is additionally order-INDEPENDENT: workers may shard
// per-worker Moments accumulators and fold them in with MergeMoments,
// and the moments read back bit-identical to drain-side accumulation.
// Only the P² quantiles are order-sensitive, so a sharded run feeds them
// alone at the ordered drain via AddQuantiles.
//
// Non-finite observations (NaN, ±Inf) and invalid weights are rejected
// and counted rather than accumulated: a single NaN fed to the moments
// or a P² marker would silently poison the mean, the variance and every
// quantile estimate for the rest of the run.
type StreamSummary struct {
	m           Moments
	med, lo, hi *P2Quantile
}

// NewStreamSummary creates an empty streaming summary sink.
func NewStreamSummary() *StreamSummary {
	return &StreamSummary{
		med: NewP2Quantile(0.5),
		lo:  NewP2Quantile(0.05),
		hi:  NewP2Quantile(0.95),
	}
}

// AddWeighted folds one (observation, weight) pair into every
// accumulator. A non-finite x or an invalid weight is rejected (counted
// in Rejected, excluded from the statistics).
func (s *StreamSummary) AddWeighted(x, w float64) {
	s.m.AddWeighted(x, w)
	s.addQuantiles(x, w)
}

// Add is AddWeighted with weight 1.
func (s *StreamSummary) Add(x float64) { s.AddWeighted(x, 1) }

// AddQuantiles folds one observation at weight 1 into the P² quantile
// estimators only — the drain-side half of a sharded run, whose moments
// arrive separately via per-worker Moments and MergeMoments. Non-finite
// x is ignored without counting (the worker shard counts it).
func (s *StreamSummary) AddQuantiles(x float64) { s.addQuantiles(x, 1) }

func (s *StreamSummary) addQuantiles(x, w float64) {
	s.med.AddWeighted(x, w)
	s.lo.AddWeighted(x, w)
	s.hi.AddWeighted(x, w)
}

// MergeMoments folds a worker-sharded Moments accumulator (including its
// non-finite rejection count) into the sink's moment half. Because
// Moments merging is exact, the result is bit-identical to having fed
// the shard's observations through Add in delivery order.
func (s *StreamSummary) MergeMoments(m *Moments) { s.m.Merge(m) }

// N returns the accepted observation count.
func (s *StreamSummary) N() int { return s.m.N() }

// Rejected returns the number of observations Add and AddWeighted
// rejected.
func (s *StreamSummary) Rejected() int { return s.m.NonFinite() }

// Summary renders the streaming state as a Summary. Mean/Std/Min/Max are
// exact (correctly-rounded exact sums); Median/P05/P95 are P² estimates.
// N is the raw accepted sample count, whatever the weights.
func (s *StreamSummary) Summary() Summary {
	if s.m.N() == 0 {
		return Summary{NonFinite: s.m.NonFinite()}
	}
	return Summary{
		N:         s.m.N(),
		Mean:      s.m.Mean(),
		Std:       s.m.Std(),
		Min:       s.m.Min(),
		Max:       s.m.Max(),
		Median:    s.med.Value(),
		P05:       s.lo.Value(),
		P95:       s.hi.Value(),
		NonFinite: s.m.NonFinite(),
	}
}
