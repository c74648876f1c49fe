package stat

import (
	"math"
	"testing"
	"testing/quick"

	"lcsim/internal/mat"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := map[float64]float64{
		0.5:     0,
		0.975:   1.959963985,
		0.025:   -1.959963985,
		0.84134: 0.99998, // ~1 sigma
		0.99865: 2.999977,
	}
	for p, want := range cases {
		if got := NormalQuantile(p); !almostEq(got, want, 2e-4) {
			t.Fatalf("Φ⁻¹(%g) = %v, want %v", p, got, want)
		}
	}
}

func TestNormalQuantileRoundTripProperty(t *testing.T) {
	// Φ(Φ⁻¹(p)) = p using math.Erfc as the exact CDF.
	f := func(u uint32) bool {
		p := (float64(u%999999) + 0.5) / 1e6
		x := NormalQuantile(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2)
		return almostEq(back, p, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NormalQuantile(%g) should panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestDistributions(t *testing.T) {
	u := Uniform{Lo: -1, Hi: 3}
	if u.Quantile(0) != -1 || u.Quantile(1) != 3 || u.Quantile(0.5) != 1 {
		t.Fatal("Uniform quantile wrong")
	}
	n := Normal{Mean: 10, Sigma: 2}
	if !almostEq(n.Quantile(0.5), 10, 1e-12) {
		t.Fatal("Normal median wrong")
	}
	if !almostEq(n.Quantile(0.975), 10+2*1.959963985, 1e-3) {
		t.Fatal("Normal 97.5% wrong")
	}
	tn := TruncNormal{Mean: 0, Sigma: 1, K: 3}
	for _, q := range []float64{0.0001, 0.5, 0.9999} {
		if v := tn.Quantile(q); math.Abs(v) > 3.0001 {
			t.Fatalf("truncated normal escaped ±3σ: %g", v)
		}
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	rng := NewRNG(1)
	n, d := 50, 4
	cube := LatinHypercube(rng, n, d)
	for j := 0; j < d; j++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			u := cube[i][j]
			if u <= 0 || u >= 1 {
				t.Fatalf("sample out of (0,1): %g", u)
			}
			k := int(u * float64(n))
			if seen[k] {
				t.Fatalf("dimension %d: stratum %d hit twice — not a Latin hypercube", j, k)
			}
			seen[k] = true
		}
	}
}

func TestLatinHypercubeVarianceReduction(t *testing.T) {
	// For the mean of a monotone function, LHS has (much) lower estimator
	// variance than plain MC.
	f := func(row []float64) float64 { return row[0] + 2*row[1] }
	varOf := func(gen func(seed int64) [][]float64) float64 {
		var means []float64
		for s := int64(0); s < 40; s++ {
			cube := gen(s)
			acc := 0.0
			for _, r := range cube {
				acc += f(r)
			}
			means = append(means, acc/float64(len(cube)))
		}
		return Std(means)
	}
	lhsVar := varOf(func(s int64) [][]float64 { return LatinHypercube(NewRNG(s), 30, 2) })
	mcVar := varOf(func(s int64) [][]float64 { return MonteCarloCube(NewRNG(s+1000), 30, 2) })
	if lhsVar >= mcVar {
		t.Fatalf("LHS estimator std %g should beat MC %g", lhsVar, mcVar)
	}
}

func TestSamplePlan(t *testing.T) {
	cube := [][]float64{{0.5, 0.5}, {0.975, 0.0001}}
	plans := SamplePlan(cube, []Dist{Normal{0, 1}, Uniform{0, 10}})
	if !almostEq(plans[0][0], 0, 1e-9) || !almostEq(plans[0][1], 5, 1e-9) {
		t.Fatalf("plan row 0 wrong: %v", plans[0])
	}
	if !almostEq(plans[1][0], 1.96, 1e-2) {
		t.Fatalf("plan row 1 wrong: %v", plans[1])
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almostEq(s.Mean, 3, 1e-12) {
		t.Fatalf("mean: %+v", s)
	}
	if !almostEq(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std: %v", s.Std)
	}
	if s.Min != 1 || s.Max != 5 || !almostEq(s.Median, 3, 1e-12) {
		t.Fatalf("range: %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summary")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 1, 2, 3, 4}
	if !almostEq(Quantile(sorted, 0.5), 2, 1e-12) {
		t.Fatal("median")
	}
	if !almostEq(Quantile(sorted, 0.25), 1, 1e-12) {
		t.Fatal("q25")
	}
	if Quantile(sorted, 1) != 4 || Quantile(sorted, 0) != 0 {
		t.Fatal("extremes")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.9, 1.0}
	h := NewHistogram(xs, 2)
	if h.Total != 5 {
		t.Fatal("total")
	}
	if h.Counts[0] != 3 || h.Counts[1] != 2 {
		t.Fatalf("counts: %v", h.Counts)
	}
	if h.BinCenter(0) >= h.BinCenter(1) {
		t.Fatal("bin centers must increase")
	}
	if out := h.Render(10, nil); len(out) == 0 {
		t.Fatal("render empty")
	}
	// Degenerate single-value histogram must not divide by zero.
	h2 := NewHistogram([]float64{7, 7, 7}, 4)
	if h2.Total != 3 {
		t.Fatal("degenerate histogram total")
	}
}

func TestKSDistance(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d := KSDistance(a, a); d > 1e-12 {
		t.Fatalf("identical samples: KS = %g", d)
	}
	b := []float64{101, 102, 103}
	if d := KSDistance(a, b); !almostEq(d, 1, 1e-12) {
		t.Fatalf("disjoint samples: KS = %g", d)
	}
}

func TestPCARecoversStructure(t *testing.T) {
	// Synthetic 60-parameter population driven by 10 latent factors — the
	// PDFAB observation the paper cites (§4.1.1): PCA must find ~10
	// dominant components.
	rng := NewRNG(42)
	const nObs, nParam, nFactor = 400, 60, 10
	loads := make([][]float64, nParam)
	for i := range loads {
		loads[i] = make([]float64, nFactor)
		for k := range loads[i] {
			loads[i][k] = rng.NormFloat64()
		}
	}
	data := make([][]float64, nObs)
	for o := range data {
		z := make([]float64, nFactor)
		for k := range z {
			z[k] = rng.NormFloat64()
		}
		row := make([]float64, nParam)
		for i := 0; i < nParam; i++ {
			for k := 0; k < nFactor; k++ {
				row[i] += loads[i][k] * z[k]
			}
			row[i] += 0.01 * rng.NormFloat64() // measurement noise
		}
		data[o] = row
	}
	p, err := FitPCA(data)
	if err != nil {
		t.Fatal(err)
	}
	nf := p.NumFactors(0.99)
	if nf > nFactor+2 {
		t.Fatalf("PCA found %d factors, want ~%d", nf, nFactor)
	}
	if nf < nFactor-2 {
		t.Fatalf("PCA found too few factors: %d", nf)
	}
}

func TestPCATransformInverseRoundTrip(t *testing.T) {
	rng := NewRNG(7)
	data := make([][]float64, 100)
	for i := range data {
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		data[i] = []float64{a + b, a - b, 2 * a, 0.5 * b}
	}
	p, err := FitPCA(data)
	if err != nil {
		t.Fatal(err)
	}
	x := data[3]
	z := p.Transform(x)
	back := p.Inverse(z)
	for i := range x {
		if !almostEq(back[i], x[i], 1e-8) {
			t.Fatalf("roundtrip failed at %d: %g vs %g", i, back[i], x[i])
		}
	}
}

func TestPCAUncorrelatedScoresProperty(t *testing.T) {
	rng := NewRNG(11)
	data := make([][]float64, 300)
	for i := range data {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		data[i] = []float64{a, 0.8*a + 0.6*b, b - a}
	}
	p, err := FitPCA(data)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([][]float64, len(data))
	for i, row := range data {
		scores[i] = p.Transform(row)
	}
	// Off-diagonal correlation of normalized scores must vanish.
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			acc := 0.0
			for i := range scores {
				acc += scores[i][a] * scores[i][b]
			}
			acc /= float64(len(scores) - 1)
			if math.Abs(acc) > 0.05 {
				t.Fatalf("scores %d,%d correlated: %g", a, b, acc)
			}
		}
	}
}

func TestPCACovPath(t *testing.T) {
	cov := mat.NewDenseData(2, 2, []float64{4, 0, 0, 1})
	p, err := FitPCACov([]float64{1, 2}, cov)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p.Variances[0], 4, 1e-12) || !almostEq(p.Variances[1], 1, 1e-12) {
		t.Fatalf("variances: %v", p.Variances)
	}
}

func TestBootstrapCI(t *testing.T) {
	rng := NewRNG(1)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 10 + 2*rng.NormFloat64()
	}
	lo, hi := BootstrapCI(xs, Mean, 400, 0.95, 7)
	if !(lo < 10 && 10 < hi) {
		t.Fatalf("95%% CI [%g, %g] should cover the true mean 10", lo, hi)
	}
	if hi-lo > 1.5 {
		t.Fatalf("CI too wide: [%g, %g]", lo, hi)
	}
	// Deterministic.
	lo2, hi2 := BootstrapCI(xs, Mean, 400, 0.95, 7)
	if lo != lo2 || hi != hi2 {
		t.Fatal("bootstrap must be deterministic for a fixed seed")
	}
	// Degenerate inputs.
	if l, h := BootstrapCI(nil, Mean, 100, 0.95, 1); !math.IsNaN(l) || !math.IsNaN(h) {
		t.Fatal("empty sample must yield NaN")
	}
}

// halton returns n rows of the d-dimensional Halton sequence.
func halton(n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = HaltonAt(i, j)
		}
	}
	return out
}

func TestHaltonStratification(t *testing.T) {
	pts := halton(128, 3)
	for d := 0; d < 3; d++ {
		// Low-discrepancy: each half of [0,1] gets close to half the points.
		lo := 0
		for _, row := range pts {
			if row[d] <= 0 || row[d] >= 1 {
				t.Fatalf("point out of (0,1): %g", row[d])
			}
			if row[d] < 0.5 {
				lo++
			}
		}
		if lo < 50 || lo > 78 {
			t.Fatalf("dimension %d badly balanced: %d/128 below 0.5", d, lo)
		}
	}
}

func TestHaltonDeterministicAndDistinct(t *testing.T) {
	a := halton(16, 2)
	b := halton(16, 2)
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatal("Halton must be deterministic")
		}
	}
	seen := map[float64]bool{}
	for _, row := range a {
		if seen[row[0]] {
			t.Fatal("base-2 coordinates must be distinct")
		}
		seen[row[0]] = true
	}
}

func TestHaltonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for too many dimensions")
		}
	}()
	HaltonAt(4, 99)
}

func TestHaltonBeatsPlainMCForMeans(t *testing.T) {
	f := func(row []float64) float64 { return row[0]*row[0] + row[1] }
	// True mean = 1/3 + 1/2.
	pts := halton(256, 2)
	acc := 0.0
	for _, r := range pts {
		acc += f(r)
	}
	got := acc / float64(len(pts))
	if math.Abs(got-(1.0/3+0.5)) > 0.01 {
		t.Fatalf("Halton mean %g, want %g", got, 1.0/3+0.5)
	}
}
