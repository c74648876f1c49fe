package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sortByReal(v []complex128) {
	sort.Slice(v, func(i, j int) bool {
		if real(v[i]) != real(v[j]) {
			return real(v[i]) < real(v[j])
		}
		return imag(v[i]) < imag(v[j])
	})
}

func TestEigenvaluesDiagonal(t *testing.T) {
	a := NewDenseData(3, 3, []float64{
		5, 0, 0,
		0, -2, 0,
		0, 0, 1,
	})
	vals, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	sortByReal(vals)
	want := []float64{-2, 1, 5}
	for i, w := range want {
		if !almostEq(real(vals[i]), w, 1e-10) || !almostEq(imag(vals[i]), 0, 1e-10) {
			t.Fatalf("eigenvalue %d = %v, want %v", i, vals[i], w)
		}
	}
}

func TestEigenvaluesRotation(t *testing.T) {
	// 2D rotation by θ has eigenvalues cosθ ± i sinθ.
	th := 0.7
	a := NewDenseData(2, 2, []float64{
		math.Cos(th), -math.Sin(th),
		math.Sin(th), math.Cos(th),
	})
	vals, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if !almostEq(real(v), math.Cos(th), 1e-10) || !almostEq(math.Abs(imag(v)), math.Sin(th), 1e-10) {
			t.Fatalf("rotation eigenvalue = %v", v)
		}
	}
	if imag(vals[0])*imag(vals[1]) >= 0 {
		t.Fatal("complex eigenvalues must form a conjugate pair")
	}
}

// luDet returns the determinant from an LU factorization: the product of
// U's diagonal, negated when the row permutation is odd.
func luDet(f *LU) float64 {
	d := 1.0
	for i := range f.piv {
		d *= f.lu.At(i, i)
	}
	seen := make([]bool, len(f.piv))
	for i := range f.piv {
		// A cycle of length L is L-1 row swaps.
		for j := f.piv[i]; !seen[i] && j != i; j = f.piv[j] {
			d = -d
			seen[j] = true
		}
		seen[i] = true
	}
	return d
}

func TestEigenvaluesTraceDetProperty(t *testing.T) {
	// Sum of eigenvalues = trace, product = det, for random matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		a := randomDense(rng, n, n)
		vals, err := Eigenvalues(a)
		if err != nil {
			return false
		}
		sum := complex(0, 0)
		prod := complex(1, 0)
		for _, v := range vals {
			sum += v
			prod *= v
		}
		tr := 0.0
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		fa, err := FactorLU(a)
		var det float64
		if err == nil {
			det = luDet(fa)
		}
		scale := 1 + a.MaxAbs()
		if !almostEq(real(sum), tr, 1e-7*scale) || !almostEq(imag(sum), 0, 1e-7*scale) {
			return false
		}
		if err == nil {
			// Product of eigenvalues vs determinant, loose tolerance since
			// the product amplifies error.
			mag := math.Max(math.Abs(det), 1)
			if cmplx.Abs(prod-complex(det, 0)) > 1e-5*mag*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenvaluesKnownSimilarity(t *testing.T) {
	// Construct A = P D P^{-1} with known spectrum and recover it.
	rng := rand.New(rand.NewSource(11))
	n := 5
	want := []float64{-3, -1, 0.5, 2, 10}
	d := NewDense(n, n)
	for i, v := range want {
		d.Set(i, i, v)
	}
	var p *Dense
	for {
		p = randomDense(rng, n, n)
		if _, err := FactorLU(p); err == nil {
			break
		}
	}
	fp, err := FactorLU(p)
	if err != nil {
		t.Fatal(err)
	}
	a := Mul(p, Mul(d, fp.Inverse()))
	vals, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	sortByReal(vals)
	for i, w := range want {
		if !almostEq(real(vals[i]), w, 1e-6) || math.Abs(imag(vals[i])) > 1e-6 {
			t.Fatalf("eigenvalue %d = %v, want %v", i, vals[i], w)
		}
	}
}

func TestEigenDecomposeResidual(t *testing.T) {
	// ||A v - λ v|| should be tiny for every eigenpair.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6)
		a := randomDense(rng, n, n)
		ed, err := EigenDecompose(a)
		if err != nil {
			t.Fatal(err)
		}
		ac := NewCDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ac.Set(i, j, complex(a.At(i, j), 0))
			}
		}
		for k := 0; k < n; k++ {
			v := ed.Vectors.Col(k)
			av := cmulVec(ac, v)
			res := 0.0
			for i := range av {
				res += cmplx.Abs(av[i]-ed.Values[k]*v[i]) * cmplx.Abs(av[i]-ed.Values[k]*v[i])
			}
			res = math.Sqrt(res)
			if res > 1e-6*(1+a.MaxAbs()) {
				t.Fatalf("trial %d eigenpair %d residual %g too large (λ=%v)", trial, k, res, ed.Values[k])
			}
		}
	}
}

func TestEigenDecomposeConjugatePairs(t *testing.T) {
	a := NewDenseData(2, 2, []float64{0, -4, 1, 0}) // eigenvalues ±2i
	ed, err := EigenDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(imag(ed.Values[0]), -imag(ed.Values[1]), 1e-10) {
		t.Fatalf("not a conjugate pair: %v", ed.Values)
	}
	if !almostEq(math.Abs(imag(ed.Values[0])), 2, 1e-10) {
		t.Fatalf("eigenvalues = %v, want ±2i", ed.Values)
	}
}

func TestEigenvaluesEmptyAndOne(t *testing.T) {
	vals, err := Eigenvalues(NewDense(0, 0))
	if err != nil || len(vals) != 0 {
		t.Fatalf("0x0: %v %v", vals, err)
	}
	vals, err = Eigenvalues(NewDenseData(1, 1, []float64{7}))
	if err != nil || !almostEq(real(vals[0]), 7, 1e-14) {
		t.Fatalf("1x1: %v %v", vals, err)
	}
}

func TestEigenvaluesNonSquare(t *testing.T) {
	if _, err := Eigenvalues(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestEigenvaluesRCStylePencil(t *testing.T) {
	// T = -G^{-1} C for an RC ladder: all eigenvalues (negative time
	// constants) must be real and negative.
	n := 8
	g := NewDense(n, n)
	c := NewDense(n, n)
	for i := 0; i < n; i++ {
		// ladder conductances ~ 1/R with R = 1..n
		gi := 1.0 / float64(i+1)
		g.Add(i, i, gi)
		if i+1 < n {
			gNext := 1.0 / float64(i+2)
			g.Add(i, i, gNext)
			g.Add(i+1, i+1, gNext)
			g.Add(i, i+1, -gNext)
			g.Add(i+1, i, -gNext)
		}
		c.Set(i, i, 1e-12*float64(1+i%3))
	}
	fg, err := FactorLU(g)
	if err != nil {
		t.Fatal(err)
	}
	tm := fg.SolveMat(c).Scale(-1)
	vals, err := Eigenvalues(tm)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if real(v) >= 0 {
			t.Fatalf("RC time-constant eigenvalue must be negative, got %v", v)
		}
		if math.Abs(imag(v)) > 1e-18 {
			t.Fatalf("RC eigenvalue must be real, got %v", v)
		}
	}
}

func TestSymEigenDecomposeKnown(t *testing.T) {
	a := NewDenseData(2, 2, []float64{2, 1, 1, 2}) // eigenvalues 3, 1
	se, err := SymEigenDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(se.Values[0], 3, 1e-12) || !almostEq(se.Values[1], 1, 1e-12) {
		t.Fatalf("Values = %v, want [3 1]", se.Values)
	}
}

func TestSymEigenDecomposeProperty(t *testing.T) {
	// A V = V diag(λ), VᵀV = I for random symmetric matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomDense(rng, n, n)
		a = a.T().AddScaled(1, a)
		se, err := SymEigenDecompose(a)
		if err != nil {
			return false
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if se.Values[i] > se.Values[i-1]+1e-12 {
				return false
			}
		}
		// Orthonormality.
		vtv := Mul(se.Vectors.T(), se.Vectors)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(vtv.At(i, j), want, 1e-9) {
					return false
				}
			}
		}
		// Residual.
		av := Mul(a, se.Vectors)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if !almostEq(av.At(i, j), se.Values[j]*se.Vectors.At(i, j), 1e-8*(1+a.MaxAbs())) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenvaluesRepeated(t *testing.T) {
	// A matrix with a repeated eigenvalue (diagonalizable): 2I ⊕ [3].
	a := NewDenseData(3, 3, []float64{
		2, 0, 0,
		0, 2, 0,
		0, 0, 3,
	})
	vals, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	sortByReal(vals)
	want := []float64{2, 2, 3}
	for i, w := range want {
		if !almostEq(real(vals[i]), w, 1e-10) {
			t.Fatalf("eigenvalue %d = %v, want %v", i, vals[i], w)
		}
	}
}

func TestEigenvaluesNearDefective(t *testing.T) {
	// A Jordan-like block perturbed into diagonalizability: eigenvalues of
	// [[2, 1], [ε, 2]] are 2 ± √ε.
	eps := 1e-8
	a := NewDenseData(2, 2, []float64{2, 1, eps, 2})
	vals, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	sum := real(vals[0] + vals[1])
	if !almostEq(sum, 4, 1e-9) {
		t.Fatalf("trace violated: %v", vals)
	}
	d := math.Abs(real(vals[0] - vals[1]))
	if !almostEq(d, 2*math.Sqrt(eps), 1e-6) {
		t.Fatalf("splitting %g, want %g", d, 2*math.Sqrt(eps))
	}
}

func TestEigenvaluesScaleInvariance(t *testing.T) {
	// Eigenvalues of s·A are s·eig(A) — exercises balancing.
	rng := rand.New(rand.NewSource(21))
	a := randomDense(rng, 5, 5)
	v1, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	s := 1e9
	b := a.Clone().Scale(s)
	v2, err := Eigenvalues(b)
	if err != nil {
		t.Fatal(err)
	}
	sortByReal(v1)
	sortByReal(v2)
	for i := range v1 {
		if cmplx.Abs(v2[i]-complex(s, 0)*v1[i]) > 1e-5*s*(1+cmplx.Abs(v1[i])) {
			t.Fatalf("scale invariance violated at %d: %v vs %v", i, v2[i], v1[i])
		}
	}
}
