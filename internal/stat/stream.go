package stat

import (
	"math"
	"sort"
)

// P2Quantile estimates a single quantile online with the P² algorithm
// (Jain & Chlamtac 1985): five markers track the quantile without
// storing the sample. Memory is O(1); accuracy is within ~1% of the
// exact order statistic for well-behaved distributions.
type P2Quantile struct {
	p    float64
	n    int
	q    [5]float64 // marker heights
	pos  [5]float64 // marker positions (1-based)
	want [5]float64 // desired positions
	dn   [5]float64 // desired-position increments
	init [5]float64 // first five observations
}

// NewP2Quantile creates an estimator for quantile p in (0, 1).
func NewP2Quantile(p float64) *P2Quantile {
	e := &P2Quantile{p: p}
	e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add folds one observation into the estimator.
func (e *P2Quantile) Add(x float64) {
	if e.n < 5 {
		e.init[e.n] = x
		e.n++
		if e.n == 5 {
			obs := e.init
			sort.Float64s(obs[:])
			e.q = obs
			e.pos = [5]float64{1, 2, 3, 4, 5}
			for i := range e.want {
				e.want[i] = 1 + 4*e.dn[i]
			}
		}
		return
	}
	e.n++
	// Locate the cell and update the extreme markers.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.dn[i]
	}
	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := math.Copysign(1, d)
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic marker update.
func (e *P2Quantile) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback update when the parabola exits the bracket.
func (e *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// N returns the observation count.
func (e *P2Quantile) N() int { return e.n }

// Value returns the current quantile estimate. For fewer than five
// observations it interpolates the stored sample exactly.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.n < 5 {
		obs := make([]float64, e.n)
		copy(obs, e.init[:e.n])
		sort.Float64s(obs)
		return Quantile(obs, e.p)
	}
	return e.q[2]
}

// StreamSummary is the streaming statistics sink used by the Monte-Carlo
// runtime when samples are not materialized: exact order-independent
// moments (Moments: count, min/max, exact Σx/Σx²) plus P² estimators for
// the median and the 5th/95th percentiles. Feed it in a deterministic
// order (the runner's ordered sink) and the resulting Summary is
// bit-identical at any worker count.
//
// The moment half is additionally order-INDEPENDENT: workers may shard
// per-worker Moments accumulators and fold them in with MergeMoments,
// and the moments read back bit-identical to drain-side accumulation.
// Only the P² quantiles are order-sensitive, so a sharded run feeds them
// alone at the ordered drain via AddQuantiles.
//
// Non-finite observations (NaN, ±Inf) are rejected and counted rather
// than accumulated: a single NaN fed to the moments or a P² marker would
// silently poison the mean, the variance and every quantile estimate for
// the rest of the run.
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

// Add folds one observation into every accumulator. A non-finite x is
// rejected (counted in Rejected, excluded from the statistics).
func (s *StreamSummary) Add(x float64) {
	s.m.Add(x)
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	s.med.Add(x)
	s.lo.Add(x)
	s.hi.Add(x)
}

// AddQuantiles folds one observation into the P² quantile estimators
// only — the drain-side half of a sharded run, whose moments arrive
// separately via per-worker Moments and MergeMoments. Non-finite x is
// ignored without counting (the worker shard counts it).
func (s *StreamSummary) AddQuantiles(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	s.med.Add(x)
	s.lo.Add(x)
	s.hi.Add(x)
}

// MergeMoments folds a worker-sharded Moments accumulator (including its
// non-finite rejection count) into the sink's moment half. Because
// Moments merging is exact, the result is bit-identical to having fed
// the shard's observations through Add in delivery order.
func (s *StreamSummary) MergeMoments(m *Moments) { s.m.Merge(m) }

// N returns the accepted observation count.
func (s *StreamSummary) N() int { return s.m.N() }

// Rejected returns the number of non-finite observations rejected by Add.
func (s *StreamSummary) Rejected() int { return s.m.NonFinite() }

// Summary renders the streaming state as a Summary. Mean/Std/Min/Max are
// exact (correctly-rounded exact sums); Median/P05/P95 are P² estimates.
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
