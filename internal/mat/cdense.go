package mat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CDense is a dense, row-major matrix of complex128, used for eigenvector
// computations and pole/residue algebra.
type CDense struct {
	rows, cols int
	data       []complex128
}

// NewCDense creates an r-by-c zero complex matrix.
func NewCDense(r, c int) *CDense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &CDense{rows: r, cols: c, data: make([]complex128, r*c)}
}

// Rows returns the number of rows.
func (m *CDense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CDense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *CDense) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *CDense) Set(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *CDense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *CDense) Clone() *CDense {
	out := NewCDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns row i as a slice view (not a copy). Hot loops use this to
// bypass the per-element bounds check of At.
func (m *CDense) Row(i int) []complex128 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// CopyFrom overwrites m with the contents of a (same shape required).
func (m *CDense) CopyFrom(a *CDense) {
	if m.rows != a.rows || m.cols != a.cols {
		panic(fmt.Sprintf("mat: CopyFrom shape %dx%d != %dx%d", m.rows, m.cols, a.rows, a.cols))
	}
	copy(m.data, a.data)
}

// AddScaled adds s*a to m in place (same shape required) and returns m.
func (m *CDense) AddScaled(s complex128, a *CDense) *CDense {
	if m.rows != a.rows || m.cols != a.cols {
		panic(fmt.Sprintf("mat: AddScaled shape %dx%d != %dx%d", m.rows, m.cols, a.rows, a.cols))
	}
	for i := range m.data {
		m.data[i] += s * a.data[i]
	}
	return m
}

// Zero sets all elements to zero.
func (m *CDense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Col returns a copy of column j.
func (m *CDense) Col(j int) []complex128 {
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// CLU is an LU factorization with partial pivoting of a complex matrix.
type CLU struct {
	lu  *CDense
	piv []int
}

// FactorCLU computes PA = LU for a square complex matrix. The input is not
// modified. Returns ErrSingular on an exactly zero pivot column.
func FactorCLU(a *CDense) (*CLU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: CLU requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	f, sing := factorCLUInner(a, 0)
	if sing {
		return nil, ErrSingular
	}
	return f, nil
}

// factorCLUWithRepair factorizes a and replaces any (near-)zero pivot with
// tiny, the standard inverse-iteration device for shifted singular systems.
func factorCLUWithRepair(a *CDense, tiny float64) *CLU {
	f, _ := factorCLUInner(a, tiny)
	return f
}

func factorCLUInner(a *CDense, tiny float64) (*CLU, bool) {
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	singular := false
	for k := 0; k < n; k++ {
		p := k
		mx := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(lu.At(i, k)); v > mx {
				mx = v
				p = i
			}
		}
		if mx == 0 || math.IsNaN(mx) {
			singular = true
			if tiny == 0 {
				return &CLU{lu: lu, piv: piv}, true
			}
			lu.Set(p, k, complex(tiny, tiny))
		}
		if p != k {
			for j := 0; j < n; j++ {
				v1, v2 := lu.At(k, j), lu.At(p, j)
				lu.Set(k, j, v2)
				lu.Set(p, j, v1)
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
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-m*lu.At(k, j))
			}
		}
	}
	return &CLU{lu: lu, piv: piv}, singular
}

// Solve solves A x = b. b is not modified.
func (f *CLU) Solve(b []complex128) []complex128 {
	n := f.lu.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: CLU Solve rhs length %d != %d", len(b), n))
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x
}

// Inverse returns A^{-1}.
func (f *CLU) Inverse() *CDense {
	n := f.lu.rows
	out := NewCDense(n, n)
	e := make([]complex128, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := f.Solve(e)
		for i := 0; i < n; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out
}

func normC(v []complex128) float64 {
	s := 0.0
	for _, c := range v {
		s += real(c)*real(c) + imag(c)*imag(c)
	}
	return math.Sqrt(s)
}

func normalizeC(v []complex128) {
	n := normC(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= complex(n, 0)
	}
}
