package stat

import (
	"math"
	"math/rand"
	"testing"
)

// --- satellite property 1: all-weights-1 reduces bit-exactly to the
// unweighted accumulators ---

func TestWeightedP2UnitWeightsReduceToP2(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		// Small lengths keep the pre-warmup interpolation path hot; long
		// streams exercise many marker adjustments.
		n := rng.Intn(7)
		if trial%3 == 0 {
			n = 5 + rng.Intn(500)
		}
		for _, p := range []float64{0.05, 0.5, 0.95} {
			u := NewP2Quantile(p)
			w := NewWeightedP2Quantile(p)
			for i := 0; i < n; i++ {
				x := rng.NormFloat64()*3 + 10
				u.Add(x)
				w.Add(x, 1)
			}
			if u.N() != w.N() {
				t.Fatalf("trial %d p=%v: N %d vs %d", trial, p, u.N(), w.N())
			}
			if n > 0 && !sameFloat(u.Value(), w.Value()) {
				t.Fatalf("trial %d p=%v n=%d: value %v != %v", trial, p, n, u.Value(), w.Value())
			}
		}
	}
}

func TestWeightedSummaryUnitWeightsReduceToStreamSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		xs := randomStream(rng, rng.Intn(300)) // includes NaN/Inf observations
		u := NewStreamSummary()
		w := NewWeightedSummary()
		for _, x := range xs {
			u.Add(x)
			w.Add(x, 1)
		}
		if u.Rejected() != w.Rejected() {
			t.Fatalf("trial %d: rejected %d vs %d", trial, u.Rejected(), w.Rejected())
		}
		if !sameSummary(u.Summary(), w.Summary()) {
			t.Fatalf("trial %d: summary %+v != %+v", trial, u.Summary(), w.Summary())
		}
	}
}

// weightedStream draws (observation, weight) pairs with the weight
// scale of a deep-tail importance-sampled run.
func weightedStream(rng *rand.Rand, n int) (xs, ws []float64) {
	xs = make([]float64, n)
	ws = make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*1e-10 + 3e-10
		ws[i] = math.Exp(rng.NormFloat64()*4 - 8)
	}
	return xs, ws
}

// --- satellite property 3: invalid weights are rejected and counted
// like non-finite observations ---

func TestWeightedAccumulatorsRejectInvalidWeights(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5}

	var wm WeightedMoments
	var is ISEstimator
	ws := NewWeightedSummary()
	wm.Add(1, 1)
	is.Add(1, true)
	ws.Add(1, 1)
	for _, b := range bad {
		wm.Add(2, b)
		is.Add(b, true)
		ws.Add(2, b)
	}

	if wm.NonFinite() != len(bad) || wm.N() != 1 {
		t.Fatalf("WeightedMoments: nonfinite=%d n=%d", wm.NonFinite(), wm.N())
	}
	if is.Rejected() != len(bad) || is.N() != 1 || is.Fails() != 1 {
		t.Fatalf("ISEstimator: rejected=%d n=%d fails=%d", is.Rejected(), is.N(), is.Fails())
	}
	if ws.Rejected() != len(bad) || ws.N() != 1 {
		t.Fatalf("WeightedSummary: rejected=%d n=%d", ws.Rejected(), ws.N())
	}

	// The rejected pairs must not have perturbed the statistics: the
	// accumulators read back as if only the first pair was ever added.
	if !sameFloat(wm.Mean(), 1) || !sameFloat(is.Prob(), 1) {
		t.Fatalf("rejected weights leaked into statistics: %v %v", wm.Mean(), is.Prob())
	}

	// A zero weight is legal (deep-tail likelihood ratios underflow):
	// accepted, not counted as a rejection.
	wm.Add(5, 0)
	if wm.NonFinite() != len(bad) || wm.N() != 2 {
		t.Fatalf("zero weight mis-handled: rejected=%d n=%d", wm.NonFinite(), wm.N())
	}
}

// --- estimator semantics ---

// TestISEstimatorUnitWeights pins the estimator to the closed-form
// binomial results it must reproduce when every weight is 1:
// p̂ = fails/n, SE = sqrt(p(1−p)/n), ESS = n, FailESS = fails.
func TestISEstimatorUnitWeights(t *testing.T) {
	var e ISEstimator
	n, fails := 400, 17
	for i := 0; i < n; i++ {
		e.Add(1, i < fails)
	}
	p := float64(fails) / float64(n)
	if got := e.Prob(); math.Abs(got-p) > 1e-15 {
		t.Fatalf("Prob = %v, want %v", got, p)
	}
	wantSE := math.Sqrt(p * (1 - p) / float64(n))
	if got := e.StdErr(); math.Abs(got-wantSE) > 1e-15 {
		t.Fatalf("StdErr = %v, want %v", got, wantSE)
	}
	if got := e.ESS(); math.Abs(got-float64(n)) > 1e-9 {
		t.Fatalf("ESS = %v, want %d", got, n)
	}
	if got := e.FailESS(); math.Abs(got-float64(fails)) > 1e-9 {
		t.Fatalf("FailESS = %v, want %d", got, fails)
	}
}

// TestISEstimatorWeightedAgainstDirect cross-checks the exact-sum
// implementation against a direct naive computation of the
// self-normalized estimator on a weighted stream.
func TestISEstimatorWeightedAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var e ISEstimator
	var sw, sw2, swh, sw2h float64
	for i := 0; i < 2000; i++ {
		w := math.Exp(rng.NormFloat64()*2 - 4)
		fail := rng.Intn(7) == 0
		e.Add(w, fail)
		sw += w
		sw2 += w * w
		if fail {
			swh += w
			sw2h += w * w
		}
	}
	p := swh / sw
	se := math.Sqrt((1-2*p)*sw2h+p*p*sw2) / sw
	ess := sw * sw / sw2
	if got := e.Prob(); math.Abs(got-p) > 1e-12*p {
		t.Fatalf("Prob = %v, want %v", got, p)
	}
	if got := e.StdErr(); math.Abs(got-se) > 1e-9*se {
		t.Fatalf("StdErr = %v, want %v", got, se)
	}
	if got := e.ESS(); math.Abs(got-ess) > 1e-9*ess {
		t.Fatalf("ESS = %v, want %v", got, ess)
	}
}

// TestWeightedMomentsReweights pins the semantics: weighting sample
// regions up must move the weighted mean toward them.
func TestWeightedMomentsReweights(t *testing.T) {
	var m WeightedMoments
	for i := 0; i < 1000; i++ {
		x := float64(i) / 1000
		w := 1.0
		if x > 0.8 {
			w = 10 // emphasize the upper tail
		}
		m.Add(x, w)
	}
	if mean := m.Mean(); mean < 0.6 {
		t.Fatalf("weighted mean %v did not shift toward the upweighted tail", mean)
	}
	if m.Min() != 0 || math.Abs(m.Max()-0.999) > 1e-12 {
		t.Fatalf("min/max should ignore weights: %v %v", m.Min(), m.Max())
	}
}

// --- checkpoint round-trips: snapshot at any prefix, restore, finish,
// compare bit-for-bit with an uninterrupted accumulator ---

func TestWeightedSummaryStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(8)
		if trial%4 == 0 {
			n = 5 + rng.Intn(300)
		}
		xs := randomStream(rng, n)
		_, ws := weightedStream(rng, n)
		k := 0
		if n > 0 {
			k = rng.Intn(n + 1)
		}

		ref := NewWeightedSummary()
		for i := range xs {
			ref.Add(xs[i], ws[i])
		}

		a := NewWeightedSummary()
		for i := 0; i < k; i++ {
			a.Add(xs[i], ws[i])
		}
		b := NewWeightedSummary()
		b.Restore(jsonRoundTrip(t, a.State()))
		for i := k; i < n; i++ {
			b.Add(xs[i], ws[i])
		}

		if ref.Rejected() != b.Rejected() || !sameSummary(ref.Summary(), b.Summary()) {
			t.Fatalf("trial %d (n=%d k=%d): resumed summary differs", trial, n, k)
		}
		if !sameFloat(ref.m.sw.Value(), b.m.sw.Value()) {
			t.Fatalf("trial %d: weight sum differs", trial)
		}
	}
}

func TestISEstimatorStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(300)
		_, ws := weightedStream(rng, n)
		k := 0
		if n > 0 {
			k = rng.Intn(n + 1)
		}
		fails := make([]bool, n)
		for i := range fails {
			fails[i] = rng.Intn(4) == 0
		}

		var ref, a, b ISEstimator
		for i := 0; i < n; i++ {
			ref.Add(ws[i], fails[i])
		}
		for i := 0; i < k; i++ {
			a.Add(ws[i], fails[i])
		}
		b.Restore(jsonRoundTrip(t, a.State()))
		for i := k; i < n; i++ {
			b.Add(ws[i], fails[i])
		}

		if ref.N() != b.N() || ref.Fails() != b.Fails() || ref.Rejected() != b.Rejected() {
			t.Fatalf("trial %d: counts differ", trial)
		}
		if !sameFloat(ref.Prob(), b.Prob()) || !sameFloat(ref.StdErr(), b.StdErr()) ||
			!sameFloat(ref.ESS(), b.ESS()) || !sameFloat(ref.FailESS(), b.FailESS()) {
			t.Fatalf("trial %d: resumed estimator differs", trial)
		}
	}
}
