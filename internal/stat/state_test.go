package stat

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// sameFloat compares bit-for-bit, treating NaN as equal to NaN (a NaN
// marker restored as a different NaN payload would still be a round-trip
// failure, so compare the raw bits).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameSummary(a, b Summary) bool {
	return a.N == b.N && a.NonFinite == b.NonFinite &&
		sameFloat(a.Mean, b.Mean) && sameFloat(a.Std, b.Std) &&
		sameFloat(a.Min, b.Min) && sameFloat(a.Max, b.Max) &&
		sameFloat(a.Median, b.Median) && sameFloat(a.P05, b.P05) && sameFloat(a.P95, b.P95)
}

// randomStream draws n observations, occasionally non-finite so the
// Rejected counter participates in the round-trip.
func randomStream(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(12) {
		case 0:
			xs[i] = math.NaN()
		case 1:
			xs[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			xs[i] = rng.NormFloat64()*3 + 10
		}
	}
	return xs
}

// jsonRoundTrip pushes a state value through encoding/json, the same
// serialization the checkpoint layer uses, so the test covers the actual
// persistence path and not just the in-memory copy.
func jsonRoundTrip[T any](t *testing.T, s T) T {
	t.Helper()
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	var out T
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}
	return out
}

// TestStreamSummaryStateRoundTrip is the satellite property test:
// snapshotting a StreamSummary at any prefix k, serializing the state
// through JSON, restoring it into a fresh sink and feeding the remaining
// observations must be bit-identical to a never-snapshotted run —
// including the P² pre-warmup (n < 5) regime and the non-finite Rejected
// counter.
func TestStreamSummaryStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		// Small lengths dominate so the n < 5 P² regime (and the k < 5
		// snapshot point) is exercised constantly, but long streams with
		// many marker adjustments appear too.
		n := rng.Intn(8)
		if trial%4 == 0 {
			n = 5 + rng.Intn(300)
		}
		xs := randomStream(rng, n)
		k := 0
		if n > 0 {
			k = rng.Intn(n + 1)
		}

		ref := NewStreamSummary()
		for _, x := range xs {
			ref.Add(x)
		}

		a := NewStreamSummary()
		for _, x := range xs[:k] {
			a.Add(x)
		}
		b := NewStreamSummary()
		b.Restore(jsonRoundTrip(t, a.State()))
		for _, x := range xs[k:] {
			b.Add(x)
		}

		if b.N() != ref.N() || b.Rejected() != ref.Rejected() {
			t.Fatalf("trial %d (n=%d k=%d): N/Rejected %d/%d, want %d/%d",
				trial, n, k, b.N(), b.Rejected(), ref.N(), ref.Rejected())
		}
		if got, want := b.Summary(), ref.Summary(); !sameSummary(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): resumed summary %+v differs from uninterrupted %+v",
				trial, n, k, got, want)
		}
	}
}

// TestP2QuantileStateRoundTrip checks a single P² estimator across the
// warmup boundary: snapshots taken below, at and above n=5 must all
// continue bit-identically, including the desired-position accumulators.
func TestP2QuantileStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []float64{0.05, 0.5, 0.95} {
		for trial := 0; trial < 60; trial++ {
			n := rng.Intn(120)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.ExpFloat64()
			}
			k := 0
			if n > 0 {
				k = rng.Intn(n + 1)
			}
			ref := NewP2Quantile(p)
			for _, x := range xs {
				ref.Add(x)
			}
			a := NewP2Quantile(p)
			for _, x := range xs[:k] {
				a.Add(x)
			}
			b := NewP2Quantile(p)
			b.Restore(jsonRoundTrip(t, a.State()))
			for _, x := range xs[k:] {
				b.Add(x)
			}
			if b.N() != ref.N() || !sameFloat(b.Value(), ref.Value()) {
				t.Fatalf("p=%g trial %d: P² value differs after restore at k=%d of %d: %g vs %g",
					p, trial, k, n, b.Value(), ref.Value())
			}
			// The internal markers must match too, or later Adds would
			// diverge even though the current Value happens to agree.
			if sa, sb := ref.State(), b.State(); jsonString(t, sa) != jsonString(t, sb) {
				t.Fatalf("p=%g trial %d: marker state differs after restore: %+v vs %+v", p, trial, sb, sa)
			}
		}
	}
}

func jsonString(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}
