package stat

import (
	"math"
	"testing"
)

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestP2QuantileAccuracy(t *testing.T) {
	rng := NewRNG(11)
	for _, q := range []float64{0.05, 0.5, 0.95} {
		est := NewP2Quantile(q)
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = 10 + 2*rng.NormFloat64()
			est.Add(xs[i])
		}
		sorted := append([]float64(nil), xs...)
		sortFloats(sorted)
		exact := Quantile(sorted, q)
		if relErr(est.Value(), exact) > 0.01 {
			t.Fatalf("q=%g: P² %g vs exact %g", q, est.Value(), exact)
		}
	}
}

func TestP2QuantileSmallSamples(t *testing.T) {
	est := NewP2Quantile(0.5)
	if !math.IsNaN(est.Value()) {
		t.Fatal("empty estimator must be NaN")
	}
	for _, x := range []float64{3, 1, 2} {
		est.Add(x)
	}
	if est.Value() != 2 {
		t.Fatalf("median of {1,2,3} = %g", est.Value())
	}
}

// TestStreamSummaryMatchesMaterialized is the streaming acceptance check:
// 100000 LHS samples through a nontrivial response, no per-sample storage,
// mean/σ within 1e-9 relative and quantiles within 1% of the
// materialized path.
func TestStreamSummaryMatchesMaterialized(t *testing.T) {
	const n = 100000
	cube := LatinHypercube(NewRNG(5), n, 3)
	dists := []Dist{
		Normal{Mean: 100e-12, Sigma: 4e-12},
		Normal{Mean: 0, Sigma: 2e-12},
		Uniform{Lo: -1e-12, Hi: 1e-12},
	}
	response := func(row []float64) float64 {
		return dists[0].Quantile(row[0]) + dists[1].Quantile(row[1]) + dists[2].Quantile(row[2])
	}
	stream := NewStreamSummary()
	xs := make([]float64, n)
	for i, row := range cube {
		v := response(row)
		xs[i] = v
		stream.Add(v)
	}
	ref := Summarize(xs)
	got := stream.Summary()
	if got.N != n {
		t.Fatalf("N = %d", got.N)
	}
	if relErr(got.Mean, ref.Mean) > 1e-9 {
		t.Fatalf("mean: stream %g vs exact %g", got.Mean, ref.Mean)
	}
	if relErr(got.Std, ref.Std) > 1e-9 {
		t.Fatalf("std: stream %g vs exact %g", got.Std, ref.Std)
	}
	for _, c := range []struct {
		name       string
		got, exact float64
	}{{"median", got.Median, ref.Median}, {"p05", got.P05, ref.P05}, {"p95", got.P95, ref.P95}} {
		if relErr(c.got, c.exact) > 0.01 {
			t.Fatalf("%s: stream %g vs exact %g", c.name, c.got, c.exact)
		}
	}
	if got.Min != ref.Min || got.Max != ref.Max {
		t.Fatal("min/max must be exact in streaming mode")
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
