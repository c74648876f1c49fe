// Package mat provides the dense linear-algebra substrate used throughout
// the framework: real dense matrices, an LU factorization, a real
// nonsymmetric eigensolver (balance + Hessenberg + Francis double-shift QR),
// complex LU with inverse iteration for eigenvectors, and a Jacobi
// eigensolver for symmetric matrices.
//
// Matrices are small-to-medium dense (reduced-order models, covariance
// matrices, stage-level MNA systems); the sparse substrate for large
// circuit matrices lives in internal/sparse.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense, row-major matrix of float64.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense creates an r-by-c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData creates an r-by-c matrix wrapping data (row major).
// The slice is used directly, not copied.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at row i, column j by v.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice view (not a copy).
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol overwrites column j with v.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d != rows %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with the contents of a (same shape required).
func (m *Dense) CopyFrom(a *Dense) {
	if m.rows != a.rows || m.cols != a.cols {
		panic(fmt.Sprintf("mat: CopyFrom shape %dx%d != %dx%d", m.rows, m.cols, a.rows, a.cols))
	}
	copy(m.data, a.data)
}

// Zero sets all elements to zero.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			out.data[j*out.cols+i] = v
		}
	}
	return out
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddScaled adds s*a to m in place (same shape required) and returns m.
func (m *Dense) AddScaled(s float64, a *Dense) *Dense {
	if m.rows != a.rows || m.cols != a.cols {
		panic(fmt.Sprintf("mat: AddScaled shape %dx%d != %dx%d", m.rows, m.cols, a.rows, a.cols))
	}
	for i := range m.data {
		m.data[i] += s * a.data[i]
	}
	return m
}

// Diff returns a-b as a new matrix.
func Diff(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: Diff shape %dx%d != %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := a.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out
}

// Mul returns a*b as a new matrix.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul inner dims %d != %d", a.cols, b.rows))
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range ai {
			if av == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range bk {
				oi[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns a*x as a new vector.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dims %d != %d", a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		s := 0.0
		for j, v := range ai {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulTVec returns aᵀ*x as a new vector.
func MulTVec(a *Dense, x []float64) []float64 {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: MulTVec dims %d != %d", a.rows, len(x)))
	}
	out := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range ai {
			out[j] += v * xi
		}
	}
	return out
}

// MaxAbs returns the largest |element|.
func (m *Dense) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .6e ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot lengths %d != %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: AXPY lengths %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}
