package mor

import (
	"fmt"

	"lcsim/internal/mat"
	"lcsim/internal/sparse"
)

// Moments computes the first k block moments of the multiport impedance
// Z(s) = P(G + sC)⁻¹Pᵀ expanded about s = 0:
//
//	Z(s) = M0 + M1·s + M2·s² + …,   M_j = (−1)^j · P (G⁻¹C)^j G⁻¹ Pᵀ
//
// — the quantities AWE matches and the moment-matching property PRIMA's
// congruence projection guarantees for the reduced model. P selects the
// first np indices.
func Moments(g, c *sparse.CSC, np, k int) ([]*mat.Dense, error) {
	n := g.N()
	if np <= 0 || np > n {
		return nil, fmt.Errorf("mor: np = %d out of range for n = %d", np, n)
	}
	lu, err := sparse.FactorLU(g, 0.1)
	if err != nil {
		return nil, fmt.Errorf("mor: Moments: G singular: %w", err)
	}
	// Columns of the current Krylov block, starting at G⁻¹Pᵀ.
	cols := make([][]float64, np)
	for j := 0; j < np; j++ {
		e := make([]float64, n)
		e[j] = 1
		cols[j] = lu.Solve(e)
	}
	out := make([]*mat.Dense, k)
	signFlip := 1.0
	for m := 0; m < k; m++ {
		mm := mat.NewDense(np, np)
		for j := 0; j < np; j++ {
			for i := 0; i < np; i++ {
				mm.Set(i, j, signFlip*cols[j][i])
			}
		}
		out[m] = mm
		if m == k-1 {
			break
		}
		for j := 0; j < np; j++ {
			cols[j] = lu.Solve(c.MulVec(cols[j]))
		}
		signFlip = -signFlip
	}
	return out, nil
}

// ROMMoments computes the same expansion for a dense reduced model.
func (r *ROM) ROMMoments(k int) ([]*mat.Dense, error) {
	q := r.Q()
	lu, err := mat.FactorLU(r.Gr)
	if err != nil {
		return nil, fmt.Errorf("mor: ROMMoments: Gr singular: %w", err)
	}
	cols := make([][]float64, r.Np)
	for j := 0; j < r.Np; j++ {
		e := make([]float64, q)
		e[j] = 1
		cols[j] = lu.Solve(e)
	}
	out := make([]*mat.Dense, k)
	signFlip := 1.0
	for m := 0; m < k; m++ {
		mm := mat.NewDense(r.Np, r.Np)
		for j := 0; j < r.Np; j++ {
			for i := 0; i < r.Np; i++ {
				mm.Set(i, j, signFlip*cols[j][i])
			}
		}
		out[m] = mm
		if m == k-1 {
			break
		}
		for j := 0; j < r.Np; j++ {
			cols[j] = lu.Solve(mat.MulVec(r.Cr, cols[j]))
		}
		signFlip = -signFlip
	}
	return out, nil
}
