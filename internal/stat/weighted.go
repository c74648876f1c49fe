package stat

import (
	"math"
	"sort"
)

// Likelihood-ratio-weighted accumulators for Monte-Carlo and
// importance-sampled runs.
//
// An importance-sampling sweep draws samples from a shifted proposal
// density q and corrects each observation by the likelihood ratio
// w = f(x)/q(x) against the target density f; a plain Monte-Carlo run
// is the case w = 1. Each statistic has one implementation, the
// weighted one, and StreamSummary composes them. They follow two
// contracts:
//
//   - Add is AddWeighted with weight 1 (Moments, StreamSummary). With
//     unit weights Σw counts the samples exactly and every FMA-split
//     low part of w·x is zero, so the statistics read as the classic
//     unweighted ones.
//   - Invalid inputs are rejected and counted, never accumulated. A
//     weight must be finite and non-negative; a NaN or negative weight
//     would silently poison every downstream statistic exactly like a
//     NaN observation, so both are counted in the same rejection
//     counter non-finite observations use.
//
// Moments and ISEstimator accumulate on ExactSum, so their sums are
// exact and independent of the order samples arrive in. The P²
// quantiles are order-sensitive and are fed at the sweep's ordered
// drain, one sample at a time.

// weightOK reports whether a likelihood-ratio weight is usable: finite
// and non-negative. (Zero is allowed — deep-tail likelihood ratios can
// underflow to 0 and still mean "this sample contributes nothing".)
func weightOK(w float64) bool {
	return !math.IsNaN(w) && !math.IsInf(w, 0) && w >= 0
}

// Moments is the order-independent streaming moment accumulator:
// count, min/max, and exact Σw / Σw² / Σwx / Σwx² via ExactSum. Each
// per-sample contribution is split into exact hi+lo products with FMA,
// so the accumulated sums are exact whatever order the samples arrive
// in. Mean and variance are computed from the correctly-rounded exact
// sums, so two Moments fed the same multiset of pairs — in any order,
// through any partition merged with Merge — read back bit-identical
// statistics. This is what makes per-worker sharding of the
// Monte-Carlo statistics sink safe. Non-finite observations and invalid
// weights are rejected and counted in NonFinite. The zero value is an
// empty accumulator.
type Moments struct {
	n         int
	nonfinite int
	min, max  float64
	sw        ExactSum
	sw2       ExactSum
	swx       ExactSum
	swx2      ExactSum
}

// addProduct folds the exact value a*b into s as an FMA-split hi+lo
// pair, keeping the accumulated sum exact.
func addProduct(s *ExactSum, a, b float64) {
	hi := a * b
	s.Add(hi)
	if lo := math.FMA(a, b, -hi); lo != 0 {
		s.Add(lo)
	}
}

// Add is AddWeighted with weight 1.
func (m *Moments) Add(x float64) { m.AddWeighted(x, 1) }

// AddWeighted folds one (observation, weight) pair into the
// accumulator.
func (m *Moments) AddWeighted(x, w float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || !weightOK(w) {
		m.nonfinite++
		return
	}
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	m.sw.Add(w)
	addProduct(&m.sw2, w, w)
	addProduct(&m.swx, w, x)
	// Σw·x²: split x² exactly first, then each half against w, so the
	// contribution is an exact multiset of partials.
	hi := x * x
	addProduct(&m.swx2, w, hi)
	if lo := math.FMA(x, x, -hi); lo != 0 {
		addProduct(&m.swx2, w, lo)
	}
}

// Merge folds another accumulator into this one exactly; the merged
// statistics are bit-identical to a single accumulator fed both pair
// streams in any order.
func (m *Moments) Merge(o *Moments) {
	if o.n > 0 {
		if m.n == 0 {
			m.min, m.max = o.min, o.max
		} else {
			if o.min < m.min {
				m.min = o.min
			}
			if o.max > m.max {
				m.max = o.max
			}
		}
	}
	m.n += o.n
	m.nonfinite += o.nonfinite
	m.sw.Merge(&o.sw)
	m.sw2.Merge(&o.sw2)
	m.swx.Merge(&o.swx)
	m.swx2.Merge(&o.swx2)
}

// N returns the accepted observation count.
func (m *Moments) N() int { return m.n }

// NonFinite returns the rejected observation count.
func (m *Moments) NonFinite() int { return m.nonfinite }

// Mean returns the weighted mean Σwx/Σw (0 when no weight accepted).
func (m *Moments) Mean() float64 {
	sw := m.sw.Value()
	if sw <= 0 {
		return 0
	}
	return m.swx.Value() / sw
}

// Var returns the unbiased reliability-weighted sample variance
// (Σwx² − (Σwx)²/Σw) / (Σw − Σw²/Σw), computed from the
// correctly-rounded exact sums and clamped at 0 against the final
// rounding combination. With unit weights it is the unbiased sample
// variance (Σx² − (Σx)²/n) / (n − 1).
func (m *Moments) Var() float64 {
	if m.n < 2 {
		return 0
	}
	sw := m.sw.Value()
	if sw <= 0 {
		return 0
	}
	den := sw - m.sw2.Value()/sw
	if den <= 0 {
		return 0
	}
	v := (m.swx2.Value() - m.swx.Value()*m.swx.Value()/sw) / den
	if v < 0 {
		return 0
	}
	return v
}

// Std returns the square root of Var.
func (m *Moments) Std() float64 { return math.Sqrt(m.Var()) }

// Min returns the smallest accepted observation (0 when empty).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest accepted observation (0 when empty).
func (m *Moments) Max() float64 { return m.max }

// ISEstimator is the self-normalized importance-sampling estimator of a
// failure probability: each sample contributes its likelihood ratio w
// and a pass/fail indicator h, and the estimate is
//
//	p̂ = Σwh / Σw
//
// with the standard ratio-estimator error
//
//	SE = sqrt(Σ w²(h−p̂)²) / Σw = sqrt((1−2p̂)·Σw²h + p̂²·Σw²) / Σw
//
// (the expansion holds because h ∈ {0,1}). All four sums Σw, Σw², Σwh,
// Σw²h accumulate on ExactSum, so they are exact. The estimator also
// reports the two standard proposal-
// quality diagnostics: ESS = (Σw)²/Σw², the equivalent number of
// unweighted samples behind the normalization, and
// FailESS = (Σwh)²/Σw²h, the equivalent number of unweighted *failures*
// behind the tail estimate — the number that must be ≳30 before the
// Gaussian CI is trustworthy.
//
// Invalid weights (NaN, ±Inf, negative) are rejected and counted in
// Rejected. The zero value is an empty estimator.
type ISEstimator struct {
	n         int
	fails     int
	nonfinite int
	sw        ExactSum
	sw2       ExactSum
	swh       ExactSum
	sw2h      ExactSum
}

// Add folds one sample: likelihood-ratio weight w and failure indicator
// fail (true when the sample violates the budget).
func (e *ISEstimator) Add(w float64, fail bool) {
	if !weightOK(w) {
		e.nonfinite++
		return
	}
	e.n++
	e.sw.Add(w)
	addProduct(&e.sw2, w, w)
	if fail {
		e.fails++
		e.swh.Add(w)
		addProduct(&e.sw2h, w, w)
	}
}

// N returns the accepted sample count.
func (e *ISEstimator) N() int { return e.n }

// Fails returns the raw count of failing samples (unweighted).
func (e *ISEstimator) Fails() int { return e.fails }

// Rejected returns the count of samples dropped for an invalid weight.
func (e *ISEstimator) Rejected() int { return e.nonfinite }

// Prob returns the self-normalized failure-probability estimate
// Σwh/Σw (0 when no weight accepted).
func (e *ISEstimator) Prob() float64 {
	sw := e.sw.Value()
	if sw <= 0 {
		return 0
	}
	return e.swh.Value() / sw
}

// StdErr returns the standard error of Prob under the self-normalized
// ratio-estimator linearization (0 when fewer than two samples).
func (e *ISEstimator) StdErr() float64 {
	if e.n < 2 {
		return 0
	}
	sw := e.sw.Value()
	if sw <= 0 {
		return 0
	}
	p := e.swh.Value() / sw
	v := (1-2*p)*e.sw2h.Value() + p*p*e.sw2.Value()
	if v < 0 {
		return 0
	}
	return math.Sqrt(v) / sw
}

// ESS returns the effective sample size (Σw)²/Σw² — how many unweighted
// samples the weighted stream is worth (0 when empty).
func (e *ISEstimator) ESS() float64 {
	sw2 := e.sw2.Value()
	if sw2 <= 0 {
		return 0
	}
	sw := e.sw.Value()
	return sw * sw / sw2
}

// FailESS returns the effective number of failures (Σwh)²/Σw²h behind
// the tail estimate (0 when no weighted failure observed).
func (e *ISEstimator) FailESS() float64 {
	sw2h := e.sw2h.Value()
	if sw2h <= 0 {
		return 0
	}
	swh := e.swh.Value()
	return swh * swh / sw2h
}

// P2Quantile estimates a single quantile of a weighted stream online
// with a weight-extended P² algorithm (Jain & Chlamtac 1985): five
// markers track the quantile without storing the sample, so memory is
// O(1) and accuracy is within ~1% of the exact order statistic for
// well-behaved distributions. Marker positions advance by the
// observation's weight instead of by one, desired positions by dn[i]·w,
// and the marker-adjustment step/threshold scale with the running mean
// weight so adaptivity does not depend on the absolute weight scale.
// With unit weights it is the classic algorithm. Non-finite
// observations and invalid weights are ignored (StreamSummary counts
// them).
type P2Quantile struct {
	p     float64
	n     int
	sumw  float64
	q     [5]float64 // marker heights
	pos   [5]float64 // marker positions (cumulative weight)
	want  [5]float64 // desired positions
	dn    [5]float64 // desired-position increments per unit weight
	init  [5]float64 // first five observations
	initw [5]float64 // and their weights
}

// NewP2Quantile creates an estimator for quantile p in (0, 1).
func NewP2Quantile(p float64) *P2Quantile {
	e := &P2Quantile{p: p}
	e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// AddWeighted folds one (observation, weight) pair into the estimator.
func (e *P2Quantile) AddWeighted(x, w float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || !weightOK(w) {
		return
	}
	if e.n < 5 {
		e.init[e.n] = x
		e.initw[e.n] = w
		e.n++
		e.sumw += w
		if e.n == 5 {
			e.warmup()
		}
		return
	}
	e.n++
	e.sumw += w
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
		e.pos[i] += w
	}
	for i := range e.want {
		e.want[i] += e.dn[i] * w
	}
	// Adjust the interior markers toward their desired positions. The
	// unit step of the classic algorithm becomes one mean weight, so a
	// stream of tiny likelihood ratios adapts exactly as fast as the
	// same stream with weights rescaled to average 1.
	mw := e.sumw / float64(e.n)
	if mw <= 0 {
		return
	}
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= mw && e.pos[i+1]-e.pos[i] > mw) || (d <= -mw && e.pos[i-1]-e.pos[i] < -mw) {
			s := math.Copysign(1, d)
			step := s * mw
			qn := e.parabolic(i, step)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s, step)
			}
			e.pos[i] += step
		}
	}
}

// warmup initializes the markers from the first five pairs: heights are
// the sorted observations, positions the cumulative weights, and the
// desired positions interpolate the cumulative-weight range.
func (e *P2Quantile) warmup() {
	type pair struct{ x, w float64 }
	ps := make([]pair, 5)
	for i := range ps {
		ps[i] = pair{e.init[i], e.initw[i]}
	}
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].x < ps[b].x })
	c := 0.0
	for i, p := range ps {
		e.q[i] = p.x
		c += p.w
		e.pos[i] = c
	}
	for i := range e.want {
		e.want[i] = e.pos[0] + e.dn[i]*(e.pos[4]-e.pos[0])
	}
}

// parabolic is the P² piecewise-parabolic marker update with step
// |step| = mean weight in the direction of step.
func (e *P2Quantile) parabolic(i int, step float64) float64 {
	return e.q[i] + step/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+step)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-step)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback update when the parabola exits the bracket;
// s carries the ±1 direction, step the signed mean-weight increment.
func (e *P2Quantile) linear(i int, s, step float64) float64 {
	j := i + int(s)
	return e.q[i] + step*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// N returns the accepted observation count.
func (e *P2Quantile) N() int { return e.n }

// Value returns the current quantile estimate. For fewer than five
// observations it interpolates the stored weighted sample exactly; with
// unit weights that is Quantile of the sorted sample.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.n < 5 {
		return e.smallValue()
	}
	return e.q[2]
}

// smallValue computes the pre-warmup weighted quantile: order statistics
// positioned at cumulative weights, target position interpolating the
// cumulative range — the weighted generalization of Quantile(sorted, p).
func (e *P2Quantile) smallValue() float64 {
	type pair struct{ x, w float64 }
	ps := make([]pair, e.n)
	for i := range ps {
		ps[i] = pair{e.init[i], e.initw[i]}
	}
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].x < ps[b].x })
	if e.n == 1 {
		return ps[0].x
	}
	cum := make([]float64, e.n)
	c := 0.0
	for i, p := range ps {
		c += p.w
		cum[i] = c
	}
	span := cum[e.n-1] - cum[0]
	if span <= 0 {
		return ps[0].x
	}
	t := e.p * span
	lo := 0
	for lo < e.n-1 && cum[lo+1]-cum[0] <= t {
		lo++
	}
	if lo >= e.n-1 {
		return ps[e.n-1].x
	}
	gap := cum[lo+1] - cum[lo]
	if gap <= 0 {
		return ps[lo].x
	}
	frac := (t - (cum[lo] - cum[0])) / gap
	return ps[lo].x*(1-frac) + ps[lo+1].x*frac
}
