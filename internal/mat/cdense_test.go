package mat

import "testing"

// cmulVec returns a*x.
func cmulVec(a *CDense, x []complex128) []complex128 {
	out := make([]complex128, a.rows)
	for i := range out {
		for j, v := range a.data[i*a.cols : (i+1)*a.cols] {
			out[i] += v * x[j]
		}
	}
	return out
}

func TestCLUSolve(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, complex(1, 1))
	a.Set(0, 1, complex(2, 0))
	a.Set(1, 0, complex(0, -1))
	a.Set(1, 1, complex(3, 2))
	xTrue := []complex128{complex(1, -1), complex(0.5, 2)}
	b := cmulVec(a, xTrue)
	f, err := FactorCLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve(b)
	for i := range x {
		if d := x[i] - xTrue[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
			t.Fatalf("CLU solve wrong at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}

func TestCLUInverse(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, complex(2, 0))
	a.Set(1, 1, complex(0, 2))
	f, err := FactorCLU(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := f.Inverse()
	if inv.At(0, 0) != complex(0.5, 0) {
		t.Fatalf("inverse wrong: %v", inv.At(0, 0))
	}
	if inv.At(1, 1) != complex(0, -0.5) {
		t.Fatalf("inverse wrong: %v", inv.At(1, 1))
	}
}

func TestCLUSingular(t *testing.T) {
	a := NewCDense(2, 2) // all zeros
	if _, err := FactorCLU(a); err == nil {
		t.Fatal("expected error for singular complex matrix")
	}
}
