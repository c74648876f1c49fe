// Package sparse provides the sparse linear-algebra substrate for large
// circuit matrices: triplet assembly, compressed-sparse-column storage and
// a left-looking (Gilbert–Peierls) sparse LU factorization with partial
// pivoting, in the style of CSparse. Circuit MNA matrices are assembled as
// triplets by internal/circuit and factored here by the SPICE-like baseline
// simulator on every Newton iteration.
package sparse

import (
	"fmt"
	"sort"
)

// Triplet accumulates (row, col, value) entries; duplicates are summed when
// compiled to CSC form. This matches how MNA stamps accumulate.
type Triplet struct {
	n          int // square dimension
	rows, cols []int
	vals       []float64
}

// NewTriplet creates an empty n-by-n triplet accumulator.
func NewTriplet(n int) *Triplet {
	if n < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %d", n))
	}
	return &Triplet{n: n}
}

// N returns the matrix dimension.
func (t *Triplet) N() int { return t.n }

// Add accumulates v at (i, j).
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.n || j < 0 || j >= t.n {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %d", i, j, t.n))
	}
	if v == 0 {
		return
	}
	t.rows = append(t.rows, i)
	t.cols = append(t.cols, j)
	t.vals = append(t.vals, v)
}

// Clone returns an independent copy of the accumulator.
func (t *Triplet) Clone() *Triplet {
	out := &Triplet{
		n:    t.n,
		rows: make([]int, len(t.rows)),
		cols: make([]int, len(t.cols)),
		vals: make([]float64, len(t.vals)),
	}
	copy(out.rows, t.rows)
	copy(out.cols, t.cols)
	copy(out.vals, t.vals)
	return out
}

// Reset clears all accumulated entries while keeping capacity.
func (t *Triplet) Reset() {
	t.rows = t.rows[:0]
	t.cols = t.cols[:0]
	t.vals = t.vals[:0]
}

// Compile converts the accumulated triplets to CSC form, summing duplicates.
func (t *Triplet) Compile() *CSC {
	n := t.n
	count := make([]int, n+1)
	for _, j := range t.cols {
		count[j+1]++
	}
	for j := 0; j < n; j++ {
		count[j+1] += count[j]
	}
	colPtr := make([]int, n+1)
	copy(colPtr, count)
	rowIdx := make([]int, len(t.vals))
	vals := make([]float64, len(t.vals))
	next := make([]int, n)
	copy(next, colPtr[:n])
	for k, j := range t.cols {
		p := next[j]
		rowIdx[p] = t.rows[k]
		vals[p] = t.vals[k]
		next[j]++
	}
	c := &CSC{n: n, colPtr: colPtr, rowIdx: rowIdx, vals: vals}
	c.sortAndDedup()
	return c
}

// CSC is an n-by-n sparse matrix in compressed-sparse-column form with
// sorted, duplicate-free row indices within each column.
type CSC struct {
	n      int
	colPtr []int
	rowIdx []int
	vals   []float64
}

// N returns the matrix dimension.
func (c *CSC) N() int { return c.n }

// NNZ returns the number of stored entries.
func (c *CSC) NNZ() int { return len(c.vals) }

// At returns the value at (i, j) (zero if not stored). O(log nnz(col)).
func (c *CSC) At(i, j int) float64 {
	lo, hi := c.colPtr[j], c.colPtr[j+1]
	k := lo + sort.SearchInts(c.rowIdx[lo:hi], i)
	if k < hi && c.rowIdx[k] == i {
		return c.vals[k]
	}
	return 0
}

// ForEach calls fn for every stored entry (i, j, v).
func (c *CSC) ForEach(fn func(i, j int, v float64)) {
	for j := 0; j < c.n; j++ {
		for p := c.colPtr[j]; p < c.colPtr[j+1]; p++ {
			fn(c.rowIdx[p], j, c.vals[p])
		}
	}
}

// MulVec returns A*x.
func (c *CSC) MulVec(x []float64) []float64 {
	if len(x) != c.n {
		panic(fmt.Sprintf("sparse: MulVec dims %d != %d", len(x), c.n))
	}
	y := make([]float64, c.n)
	for j := 0; j < c.n; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := c.colPtr[j]; p < c.colPtr[j+1]; p++ {
			y[c.rowIdx[p]] += c.vals[p] * xj
		}
	}
	return y
}

// Extract returns the submatrix with the given (ordered) row and column
// index sets as a new len(rows)-by-len(cols) CSC. Note the result is
// square only when len(rows) == len(cols); it is represented in a CSC of
// dimension max(len(rows), len(cols)) with trailing zero rows/columns so it
// can reuse this package's square storage.
func (c *CSC) Extract(rows, cols []int) *CSC {
	rowMap := make(map[int]int, len(rows))
	for k, r := range rows {
		rowMap[r] = k
	}
	dim := len(rows)
	if len(cols) > dim {
		dim = len(cols)
	}
	t := NewTriplet(dim)
	for k, j := range cols {
		for p := c.colPtr[j]; p < c.colPtr[j+1]; p++ {
			if ri, ok := rowMap[c.rowIdx[p]]; ok {
				t.Add(ri, k, c.vals[p])
			}
		}
	}
	return t.Compile()
}

// AddScaled returns a new CSC holding a + s*b (same dimension required).
func AddScaled(a *CSC, s float64, b *CSC) *CSC {
	if a.n != b.n {
		panic(fmt.Sprintf("sparse: AddScaled dims %d != %d", a.n, b.n))
	}
	t := NewTriplet(a.n)
	for j := 0; j < a.n; j++ {
		for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
			t.Add(a.rowIdx[p], j, a.vals[p])
		}
		for p := b.colPtr[j]; p < b.colPtr[j+1]; p++ {
			t.Add(b.rowIdx[p], j, s*b.vals[p])
		}
	}
	return t.Compile()
}

func (c *CSC) sortAndDedup() {
	n := c.n
	newPtr := make([]int, n+1)
	outIdx := c.rowIdx[:0]
	outVal := c.vals[:0]
	type entry struct {
		row int
		val float64
	}
	var buf []entry
	written := 0
	for j := 0; j < n; j++ {
		buf = buf[:0]
		for p := c.colPtr[j]; p < c.colPtr[j+1]; p++ {
			buf = append(buf, entry{c.rowIdx[p], c.vals[p]})
		}
		// Columns are tiny (a handful of stamps); insertion sort avoids
		// sort.Slice's per-call overhead, which dominates assembly time on
		// large circuits otherwise.
		if len(buf) < 24 {
			for i := 1; i < len(buf); i++ {
				e := buf[i]
				k := i - 1
				for k >= 0 && buf[k].row > e.row {
					buf[k+1] = buf[k]
					k--
				}
				buf[k+1] = e
			}
		} else {
			sort.Slice(buf, func(a, b int) bool { return buf[a].row < buf[b].row })
		}
		newPtr[j] = written
		for k := 0; k < len(buf); {
			row := buf[k].row
			sum := 0.0
			for ; k < len(buf) && buf[k].row == row; k++ {
				sum += buf[k].val
			}
			outIdx = append(outIdx, row)
			outVal = append(outVal, sum)
			written++
		}
	}
	newPtr[n] = written
	c.colPtr = newPtr
	c.rowIdx = outIdx
	c.vals = outVal
}
