package stat

import (
	"fmt"
	"math/rand"
)

// LatinHypercube draws n samples in d dimensions using Latin Hypercube
// Sampling: each dimension is divided into n equal-probability strata and
// each stratum is hit exactly once, with the stratum assignments permuted
// independently per dimension. Returns an n×d matrix of values in (0,1).
//
// The paper's Example 2 evaluates its delay distributions with 100
// LHS samples; LHS reduces estimator variance relative to plain random
// sampling for monotone-ish responses.
func LatinHypercube(rng *rand.Rand, n, d int) [][]float64 {
	if n <= 0 || d <= 0 {
		panic(fmt.Sprintf("stat: LatinHypercube needs positive n, d; got %d, %d", n, d))
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
	}
	perm := make([]int, n)
	for j := 0; j < d; j++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for i := 0; i < n; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			// Guard the open interval for quantile transforms.
			if u <= 0 {
				u = 0.5 / float64(n*n)
			}
			if u >= 1 {
				u = 1 - 0.5/float64(n*n)
			}
			out[i][j] = u
		}
	}
	return out
}

// MonteCarloCube draws n independent uniform samples in d dimensions, the
// plain-MC counterpart of LatinHypercube (used by the sampling ablation).
func MonteCarloCube(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			u := rng.Float64()
			if u == 0 {
				u = 0.5 / float64(n*n+1)
			}
			out[i][j] = u
		}
	}
	return out
}

// haltonPrimes supplies co-prime bases for the Halton sequence.
var haltonPrimes = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}

// HaltonAt returns coordinate dim of row i of the Halton low-discrepancy
// sequence (skipping a small burn-in), an alternative variance-reduction
// sampler to LHS — the "advanced sampling techniques" the paper's §4.1.2
// alludes to. It is a pure function of (i, dim), which lets the parallel
// Monte-Carlo runtime generate rows on any worker without materializing
// the whole plan.
// Supports dim in [0, 16).
func HaltonAt(i, dim int) float64 {
	if i < 0 || dim < 0 || dim >= len(haltonPrimes) {
		panic(fmt.Sprintf("stat: HaltonAt supports dims 0..%d, got i=%d dim=%d", len(haltonPrimes)-1, i, dim))
	}
	const skip = 20
	return radicalInverse(i+1+skip, haltonPrimes[dim])
}

// radicalInverse reflects the base-b digits of k about the radix point.
func radicalInverse(k, b int) float64 {
	f := 1.0
	r := 0.0
	for k > 0 {
		f /= float64(b)
		r += f * float64(k%b)
		k /= b
	}
	// Guard the open interval for quantile transforms.
	if r <= 0 {
		r = 1e-12
	}
	if r >= 1 {
		r = 1 - 1e-12
	}
	return r
}

// SamplePlan maps unit-cube rows through per-dimension distributions.
func SamplePlan(cube [][]float64, dists []Dist) [][]float64 {
	out := make([][]float64, len(cube))
	for i, row := range cube {
		if len(row) != len(dists) {
			panic(fmt.Sprintf("stat: sample row has %d dims, want %d", len(row), len(dists)))
		}
		out[i] = make([]float64, len(dists))
		for j, u := range row {
			out[i][j] = dists[j].Quantile(u)
		}
	}
	return out
}
