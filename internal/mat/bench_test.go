package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchMatrix(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	a := randomDense(rng, n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func BenchmarkLU(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		a := benchMatrix(n, 1)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FactorLU(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEigenvalues(b *testing.B) {
	// Reduced-order model sizes: the eigensolver runs once per statistical
	// sample, so its cost at q ~ 6–20 matters.
	for _, n := range []int{6, 12, 24} {
		a := benchMatrix(n, 2)
		b.Run(fmt.Sprintf("q%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Eigenvalues(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEigenDecompose(b *testing.B) {
	a := benchMatrix(8, 3)
	for i := 0; i < b.N; i++ {
		if _, err := EigenDecompose(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	x := benchMatrix(64, 4)
	y := benchMatrix(64, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkSymEigen(b *testing.B) {
	// PCA covariance sizes.
	for _, n := range []int{10, 60} {
		rng := rand.New(rand.NewSource(6))
		a := randomDense(rng, n, n)
		a = a.T().AddScaled(1, a)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SymEigenDecompose(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
