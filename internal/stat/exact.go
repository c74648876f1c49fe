package stat

import "math"

// ExactSum accumulates float64 values with no rounding error at all: the
// running sum is maintained as a list of non-overlapping partials
// (Shewchuk's grow-expansion, the algorithm behind Python's math.fsum),
// and Value renders the correctly-rounded float64 nearest the exact sum.
// Because the exact sum is independent of the order values arrive, and a
// correctly-rounded readout is unique given the exact sum, any partition
// of a value stream across accumulators merged with Merge yields a
// Value() bit-identical to a single accumulator fed sequentially — the
// property that lets Monte-Carlo workers shard their moment accumulators
// and still reproduce the serial statistics bit for bit.
//
// The zero value is an empty sum. Inputs must be finite; non-finite
// values (and intermediate overflow of the leading partial) poison the
// partial list just as they would a plain sum.
type ExactSum struct {
	// p holds non-overlapping partials in increasing magnitude order;
	// their exact (infinitely precise) sum is the accumulated total.
	p []float64
}

// Add folds x into the sum exactly (no rounding error is discarded).
func (s *ExactSum) Add(x float64) {
	i := 0
	for _, y := range s.p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			s.p[i] = lo
			i++
		}
		x = hi
	}
	s.p = append(s.p[:i], x)
}

// Merge folds another exact sum into this one, exactly. The receiver's
// subsequent Value is the correctly-rounded sum of both accumulators'
// exact totals, independent of merge order.
func (s *ExactSum) Merge(o *ExactSum) {
	for _, y := range o.p {
		s.Add(y)
	}
}

// N returns the number of partials currently held (diagnostic; bounded
// by the float64 exponent range, ~40 in practice).
func (s *ExactSum) N() int { return len(s.p) }

// Value returns the float64 nearest the exact accumulated sum, with
// round-half-to-even tie breaking — the same final rounding as CPython's
// math.fsum. An empty sum reads 0.
func (s *ExactSum) Value() float64 {
	n := len(s.p)
	if n == 0 {
		return 0
	}
	// Sum from the largest partial down until a nonzero round-off
	// appears; everything below it can only matter for the tie case.
	i := n - 1
	hi := s.p[i]
	var lo float64
	for i > 0 {
		i--
		x := hi
		y := s.p[i]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	// Half-way case: the discarded round-off is exactly ±½ulp and the
	// remaining partials lean the same way — nudge to the odd-rounding
	// neighbor iff doing so is exact (i.e. it was a genuine tie).
	if i > 0 && ((lo < 0 && s.p[i-1] < 0) || (lo > 0 && s.p[i-1] > 0)) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}

// Partials returns a copy of the internal partial list (for checkpoint
// state capture).
func (s *ExactSum) Partials() []float64 {
	if len(s.p) == 0 {
		return nil
	}
	return append([]float64(nil), s.p...)
}

// SetPartials replaces the internal partial list with a copy of ps (for
// checkpoint state restore). The list must come from Partials.
func (s *ExactSum) SetPartials(ps []float64) {
	s.p = append(s.p[:0:0], ps...)
}
