package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTripletCompileSumsDuplicates(t *testing.T) {
	tr := NewTriplet(3)
	tr.Add(0, 0, 1)
	tr.Add(0, 0, 2)
	tr.Add(2, 1, -1)
	c := tr.Compile()
	if got := c.At(0, 0); got != 3 {
		t.Fatalf("At(0,0) = %v, want 3", got)
	}
	if got := c.At(2, 1); got != -1 {
		t.Fatalf("At(2,1) = %v, want -1", got)
	}
	if got := c.At(1, 1); got != 0 {
		t.Fatalf("At(1,1) = %v, want 0", got)
	}
	if c.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", c.NNZ())
	}
}

func TestTripletIgnoresZeros(t *testing.T) {
	tr := NewTriplet(2)
	tr.Add(0, 0, 0)
	if len(tr.vals) != 0 {
		t.Fatalf("zero entries must not be stored")
	}
}

func TestTripletReset(t *testing.T) {
	tr := NewTriplet(2)
	tr.Add(0, 0, 1)
	tr.Reset()
	if len(tr.vals) != 0 {
		t.Fatal("Reset did not clear entries")
	}
	tr.Add(1, 1, 5)
	if got := tr.Compile().At(1, 1); got != 5 {
		t.Fatalf("after Reset, At(1,1) = %v, want 5", got)
	}
}

func TestTripletPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTriplet(2).Add(2, 0, 1)
}

func TestCSCMulVec(t *testing.T) {
	tr := NewTriplet(3)
	tr.Add(0, 0, 2)
	tr.Add(1, 1, 3)
	tr.Add(0, 2, 1)
	c := tr.Compile()
	y := c.MulVec([]float64{1, 2, 3})
	want := []float64{5, 6, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestAddScaled(t *testing.T) {
	a := NewTriplet(2)
	a.Add(0, 0, 1)
	a.Add(1, 0, 2)
	b := NewTriplet(2)
	b.Add(0, 0, 10)
	b.Add(1, 1, 4)
	c := AddScaled(a.Compile(), 0.5, b.Compile())
	if c.At(0, 0) != 6 || c.At(1, 0) != 2 || c.At(1, 1) != 2 {
		t.Fatalf("AddScaled wrong: %v %v %v", c.At(0, 0), c.At(1, 0), c.At(1, 1))
	}
}

func randSPD(rng *rand.Rand, n int, density float64) *CSC {
	tr := NewTriplet(n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 4+rng.Float64())
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				v := rng.NormFloat64() * 0.3
				tr.Add(i, j, v)
			}
		}
	}
	return tr.Compile()
}

func TestSparseLUSolveKnown(t *testing.T) {
	// [2 1; 1 3] x = [5; 10] -> x = [1; 3]
	tr := NewTriplet(2)
	tr.Add(0, 0, 2)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	tr.Add(1, 1, 3)
	f, err := FactorLU(tr.Compile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{5, 10})
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSparseLUResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		a := randSPD(rng, n, 0.15)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := FactorLU(a, 0.1)
		if err != nil {
			return false
		}
		x := lu.Solve(b)
		r := a.MulVec(x)
		for i := range r {
			if !almostEq(r[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseLUNeedsPivoting(t *testing.T) {
	// Zero diagonal forces a row swap.
	tr := NewTriplet(2)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	f, err := FactorLU(tr.Compile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{3, 7})
	if !almostEq(x[0], 7, 1e-14) || !almostEq(x[1], 3, 1e-14) {
		t.Fatalf("Solve = %v, want [7 3]", x)
	}
}

func TestSparseLUSingular(t *testing.T) {
	tr := NewTriplet(3)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 1)
	// column 2 is empty -> singular
	if _, err := FactorLU(tr.Compile(), 1); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSparseLURCLadder(t *testing.T) {
	// Tridiagonal conductance matrix of a 200-node RC ladder: the classic
	// circuit-simulation workload; solution must match a dense-style check
	// via residual.
	n := 200
	tr := NewTriplet(n)
	for i := 0; i < n; i++ {
		g := 1.0 / (1 + float64(i%7))
		tr.Add(i, i, g+1e-3)
		if i+1 < n {
			g2 := 1.0 / (2 + float64(i%5))
			tr.Add(i, i, g2)
			tr.Add(i+1, i+1, g2)
			tr.Add(i, i+1, -g2)
			tr.Add(i+1, i, -g2)
		}
	}
	a := tr.Compile()
	f, err := FactorLU(a, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	b[0] = 1
	b[n-1] = -0.5
	x := f.Solve(b)
	r := a.MulVec(x)
	for i := range r {
		if !almostEq(r[i], b[i], 1e-9) {
			t.Fatalf("residual too large at %d: %v vs %v", i, r[i], b[i])
		}
	}
	// Fill-in for a tridiagonal matrix should stay linear in n.
	if f.NNZ() > 8*n {
		t.Fatalf("unexpected fill-in: nnz = %d for tridiagonal n = %d", f.NNZ(), n)
	}
}

func TestSparseLUThresholdVsStrictPivoting(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 30
	a := randSPD(rng, n, 0.2)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	fStrict, err := FactorLU(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	fThresh, err := FactorLU(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	x1 := fStrict.Solve(b)
	x2 := fThresh.Solve(b)
	for i := range x1 {
		if !almostEq(x1[i], x2[i], 1e-8) {
			t.Fatalf("threshold and strict pivoting disagree at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}
