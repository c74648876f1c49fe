package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solve factors a and solves a x = b.
func solve(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

func TestLUSolveKnown(t *testing.T) {
	a := NewDenseData(2, 2, []float64{2, 1, 1, 3})
	x, err := solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("Solve wrong: %v", x)
	}
}

func TestLUSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomDense(rng, n, n)
		// Make it diagonally dominant so it is well conditioned.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+2)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solve(a, b)
		if err != nil {
			return false
		}
		r := MulVec(a, x)
		for i := range r {
			if !almostEq(r[i], b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if _, err := FactorLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square LU")
	}
}

// TestLUDeterminant checks the factors through the determinant they give
// (luDet).
func TestLUDeterminant(t *testing.T) {
	a := NewDenseData(3, 3, []float64{
		2, 0, 0,
		0, 3, 0,
		0, 0, -4,
	})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := luDet(f); !almostEq(got, -24, 1e-12) {
		t.Fatalf("det = %v, want -24", got)
	}
}

func TestLUDeterminantWithPivoting(t *testing.T) {
	// Requires a row swap; the recorded permutation must carry its sign.
	a := NewDenseData(2, 2, []float64{0, 1, 1, 0})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := luDet(f); !almostEq(got, -1, 1e-14) {
		t.Fatalf("det = %v, want -1", got)
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 6
	a := randomDense(rng, n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 8)
	}
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	p := Mul(a, f.Inverse())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(p.At(i, j), want, 1e-10) {
				t.Fatalf("A*A^{-1} != I at (%d,%d): %v", i, j, p.At(i, j))
			}
		}
	}
}

func TestLUSolveMat(t *testing.T) {
	a := NewDenseData(2, 2, []float64{4, 0, 0, 2})
	b := NewDenseData(2, 2, []float64{8, 4, 6, 2})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveMat(b)
	if !almostEq(x.At(0, 0), 2, 1e-14) || !almostEq(x.At(1, 0), 3, 1e-14) ||
		!almostEq(x.At(0, 1), 1, 1e-14) || !almostEq(x.At(1, 1), 1, 1e-14) {
		t.Fatalf("SolveMat wrong: %v", x)
	}
}

func TestConditionEst(t *testing.T) {
	// diag(1, 1e-6) has condition number 1e6 in any norm.
	a := NewDenseData(2, 2, []float64{1, 0, 0, 1e-6})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if c := Norm1(a) * f.Norm1Inverse(); math.Abs(c-1e6)/1e6 > 1e-9 {
		t.Fatalf("Norm1·Norm1Inverse = %v, want ~1e6", c)
	}
}

func TestLUHilbertAccuracy(t *testing.T) {
	// Hilbert 5x5 is ill conditioned but still solvable in double precision.
	n := 5
	h := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
	}
	xTrue := []float64{1, -1, 2, -2, 3}
	b := MulVec(h, xTrue)
	x, err := solve(h, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-6) {
			t.Fatalf("Hilbert solve too inaccurate at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}
