package stat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigSum is the reference: an arbitrary-precision sum rounded once to
// float64 at the end — the definition of "correctly rounded".
func bigSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(2000)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetPrec(2000).SetFloat64(x))
	}
	v, _ := acc.Float64()
	return v
}

// hardValues spans magnitudes that defeat naive and Kahan summation.
func hardValues(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(32)-16))
	}
	return xs
}

func TestExactSumCorrectlyRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		xs := hardValues(rng, 200)
		var s ExactSum
		for _, x := range xs {
			s.Add(x)
		}
		want := bigSum(xs)
		if math.Float64bits(s.Value()) != math.Float64bits(want) {
			t.Fatalf("trial %d: ExactSum %.17g, reference %.17g", trial, s.Value(), want)
		}
	}
}

// TestExactSumPartitionInvariance is the sharded-accumulator property:
// split a stream into arbitrary per-worker shards, merge in arbitrary
// order, and the bits match the single-stream sum. This is what makes
// per-worker sharding legal in the Monte-Carlo kernel.
func TestExactSumPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		xs := hardValues(rng, 300)
		var whole ExactSum
		for _, x := range xs {
			whole.Add(x)
		}
		k := 1 + rng.Intn(7)
		shards := make([]ExactSum, k)
		for _, x := range xs {
			shards[rng.Intn(k)].Add(x)
		}
		var merged ExactSum
		for _, i := range rng.Perm(k) {
			merged.Merge(&shards[i])
		}
		if math.Float64bits(merged.Value()) != math.Float64bits(whole.Value()) {
			t.Fatalf("trial %d (k=%d): merged %.17g, single-stream %.17g",
				trial, k, merged.Value(), whole.Value())
		}
	}
}

func TestExactSumPartialsRoundTrip(t *testing.T) {
	var s ExactSum
	for _, x := range []float64{1e16, 1, -1e16, 0.5, 3e-9} {
		s.Add(x)
	}
	var r ExactSum
	r.SetPartials(s.Partials())
	r.Add(2.5)
	s.Add(2.5)
	if math.Float64bits(r.Value()) != math.Float64bits(s.Value()) {
		t.Fatalf("restored sum diverged: %.17g vs %.17g", r.Value(), s.Value())
	}
}

// momentsEqualBits compares every statistic of two accumulators bit for
// bit, the sharded-merge invariant of the MC kernel.
func momentsEqualBits(a, b *Moments) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.N() == b.N() && a.NonFinite() == b.NonFinite() &&
		eq(a.Mean(), b.Mean()) && eq(a.Var(), b.Var()) && eq(a.Std(), b.Std()) &&
		eq(a.Min(), b.Min()) && eq(a.Max(), b.Max())
}

// TestMomentsShardedMergeBitExact is the property test behind the
// per-worker sharded accumulators: any partition of the sample stream
// into shards, merged in any order, reproduces the single-stream moments
// bit for bit — including non-finite rejection counts and empty shards.
// Odd trials carry likelihood-ratio weights, even trials weight 1.
func TestMomentsShardedMergeBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		xs := hardValues(rng, 250)
		ws := make([]float64, len(xs))
		// Sprinkle in rejects: the shards must count them identically.
		for i := range xs {
			ws[i] = 1
			if trial%2 == 1 {
				ws[i] = math.Exp(rng.NormFloat64()*4 - 8)
			}
			if rng.Intn(40) == 0 {
				xs[i] = math.NaN()
			}
			if rng.Intn(40) == 0 {
				xs[i] = math.Inf(1)
			}
		}
		var whole Moments
		for i, x := range xs {
			whole.AddWeighted(x, ws[i])
		}
		k := 1 + rng.Intn(8) // k=1 and shards left empty are both legal
		shards := make([]Moments, k)
		for i, x := range xs {
			shards[rng.Intn(k)].AddWeighted(x, ws[i])
		}
		var merged Moments
		for _, i := range rng.Perm(k) {
			merged.Merge(&shards[i])
		}
		if !momentsEqualBits(&merged, &whole) {
			t.Fatalf("trial %d (k=%d): sharded merge differs from single stream:\nmerged n=%d mean=%.17g var=%.17g\nwhole  n=%d mean=%.17g var=%.17g",
				trial, k, merged.N(), merged.Mean(), merged.Var(),
				whole.N(), whole.Mean(), whole.Var())
		}
	}
}

func TestMomentsBasics(t *testing.T) {
	var m Moments
	if m.N() != 0 || m.Var() != 0 || m.Std() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 || m.Mean() != 5 || m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("n=%d mean=%g min=%g max=%g", m.N(), m.Mean(), m.Min(), m.Max())
	}
	// Sample variance of the classic σ=2 population: 32/7.
	if math.Abs(m.Var()-32.0/7.0) > 1e-15 {
		t.Fatalf("var = %.17g, want 32/7", m.Var())
	}
	m.Add(math.NaN())
	m.Add(math.Inf(-1))
	if m.N() != 8 || m.NonFinite() != 2 {
		t.Fatalf("non-finite handling: n=%d rejected=%d", m.N(), m.NonFinite())
	}
}
