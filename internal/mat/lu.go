package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters an (exactly or
// numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial pivoting: PA = LU.
type LU struct {
	lu  *Dense // combined L (unit lower) and U
	piv []int  // row permutation
}

// FactorLU computes the LU factorization of a square matrix with partial
// (row) pivoting. The input is not modified.
func FactorLU(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: LU requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	f := NewLU(a.rows)
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// NewLU allocates an LU factorization workspace for n×n matrices. Use
// Refactor to fill it; until then the factorization is not valid.
func NewLU(n int) *LU {
	return &LU{lu: NewDense(n, n), piv: make([]int, n)}
}

// Refactor factors a into the existing workspace without allocating,
// which lets per-sample hot loops refactor small matrices for free. a is
// not modified and must match the workspace dimension.
func (f *LU) Refactor(a *Dense) error {
	n := f.lu.rows
	if a.rows != n || a.cols != n {
		return fmt.Errorf("mat: LU Refactor wants %dx%d, got %dx%d", n, n, a.rows, a.cols)
	}
	lu := f.lu
	lu.CopyFrom(a)
	piv := f.piv
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > mx {
				mx = v
				p = i
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		if p != k {
			rk := lu.Row(k)
			rp := lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri := lu.Row(i)
			rk := lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// Solve solves A x = b for one right-hand side. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	return f.SolveInto(make([]float64, f.lu.rows), b)
}

// SolveInto solves A x = b into dst and returns dst. dst must have length
// n and must not alias b. b is not modified. No allocation happens, which
// makes this the solve entry point for per-timestep hot loops.
func (f *LU) SolveInto(dst, b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("mat: LU SolveInto lengths dst=%d b=%d != %d", len(dst), len(b), n))
	}
	x := dst
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L is unit lower triangular).
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	return x
}

// SolveMat solves A X = B column by column.
func (f *LU) SolveMat(b *Dense) *Dense {
	n := f.lu.rows
	if b.rows != n {
		panic(fmt.Sprintf("mat: LU SolveMat rhs rows %d != %d", b.rows, n))
	}
	out := NewDense(n, b.cols)
	for j := 0; j < b.cols; j++ {
		out.SetCol(j, f.Solve(b.Col(j)))
	}
	return out
}

// Inverse returns A^{-1} computed from the factorization.
func (f *LU) Inverse() *Dense {
	return f.SolveMat(Identity(f.lu.rows))
}

// Norm1Inverse returns ||A⁻¹||₁ computed column by column from the
// existing factorization, without materializing the inverse. Reusing the
// factorization here is what lets callers fold a condition estimate into
// work they were doing anyway (e.g. poleres.Extract).
func (f *LU) Norm1Inverse() float64 {
	n := f.lu.rows
	e := make([]float64, n)
	x := make([]float64, n)
	mx := 0.0
	for j := 0; j < n; j++ {
		e[j] = 1
		f.SolveInto(x, e)
		e[j] = 0
		s := 0.0
		for _, v := range x {
			s += math.Abs(v)
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// Norm1 returns the 1-norm (maximum absolute column sum) of a.
func Norm1(a *Dense) float64 { return norm1(a) }

func norm1(a *Dense) float64 {
	mx := 0.0
	for j := 0; j < a.cols; j++ {
		s := 0.0
		for i := 0; i < a.rows; i++ {
			s += math.Abs(a.At(i, j))
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}
