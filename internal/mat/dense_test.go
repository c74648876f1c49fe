package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestDenseBasicOps(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 3)
	m.Set(1, 1, -2)
	if got := m.At(0, 2); got != 3 {
		t.Fatalf("At(0,2) = %v, want 3", got)
	}
	m.Add(0, 2, 2)
	if got := m.At(0, 2); got != 5 {
		t.Fatalf("after Add, At(0,2) = %v, want 5", got)
	}
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 0) != 5 || tr.At(1, 1) != -2 {
		t.Fatalf("transpose values wrong: %v", tr)
	}
}

func TestDenseCloneIndependence(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone is not independent of the original")
	}
}

func TestDensePanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 4, 4)
	got := Mul(a, Identity(4))
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !almostEq(got.At(i, j), a.At(i, j), 1e-14) {
				t.Fatalf("A*I != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	got := Mul(a, b)
	want := []float64{19, 22, 43, 50}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want[i*2+j] {
				t.Fatalf("Mul wrong at (%d,%d): got %v want %v", i, j, got.At(i, j), want[i*2+j])
			}
		}
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 5, 3)
	x := []float64{1, -2, 0.5}
	xm := NewDense(3, 1)
	xm.SetCol(0, x)
	want := Mul(a, xm)
	got := MulVec(a, x)
	for i := range got {
		if !almostEq(got[i], want.At(i, 0), 1e-13) {
			t.Fatalf("MulVec mismatch at %d: %v vs %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulTVecMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 4, 6)
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := MulVec(a.T(), x)
	got := MulTVec(a, x)
	for i := range got {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("MulTVec mismatch at %d", i)
		}
	}
}

// Property: (AB)ᵀ = BᵀAᵀ for random matrices.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := randomDense(rng, r, k)
		b := randomDense(rng, k, c)
		lhs := Mul(a, b).T()
		rhs := Mul(b.T(), a.T())
		for i := 0; i < lhs.Rows(); i++ {
			for j := 0; j < lhs.Cols(); j++ {
				if !almostEq(lhs.At(i, j), rhs.At(i, j), 1e-10) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the congruence XᵀAX of a symmetric matrix is symmetric.
func TestCongruencePreservesSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		q := 1 + rng.Intn(n)
		a := randomDense(rng, n, n)
		a = a.T().AddScaled(1, a) // symmetric
		x := randomDense(rng, n, q)
		return Mul(x.T(), Mul(a, x)).IsSymmetric(1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddScaled(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{10, 20, 30, 40})
	a.AddScaled(0.5, b)
	if a.At(1, 1) != 24 {
		t.Fatalf("AddScaled wrong: got %v want 24", a.At(1, 1))
	}
}

func TestSumDiff(t *testing.T) {
	a := NewDenseData(1, 2, []float64{1, 2})
	b := NewDenseData(1, 2, []float64{3, 5})
	if d := Diff(b, a); d.At(0, 0) != 2 {
		t.Fatalf("Diff wrong: %v", d)
	}
}

func TestNorms(t *testing.T) {
	a := NewDenseData(2, 2, []float64{3, 0, 0, -4})
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
	if got := Norm2([]float64{3, 4}); !almostEq(got, 5, 1e-15) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestDotAXPY(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY wrong: %v", y)
	}
}

func TestRowColAccessors(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	r := a.Row(1)
	if r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row wrong: %v", r)
	}
	c := a.Col(2)
	if c[0] != 3 || c[1] != 6 {
		t.Fatalf("Col wrong: %v", c)
	}
	a.SetCol(0, []float64{9, 10})
	if a.At(1, 0) != 10 {
		t.Fatalf("SetCol wrong: %v", a)
	}
}
