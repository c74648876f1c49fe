package spice

import "fmt"

// dcOperatingPoint solves for the t=0 bias point with capacitors open.
// It first attempts direct Newton from a zero initial guess and falls back
// to source stepping (ramping all independent sources from 0 to full
// value), the standard SPICE continuation strategy.
func (s *Simulator) dcOperatingPoint() ([]float64, int, error) {
	v := make([]float64, s.dim)
	iters := 0
	solveAt := func(alpha float64, guess []float64) ([]float64, error) {
		base := s.static.Clone()
		// Tiny conductance to ground on every node keeps purely capacitive
		// nodes from making the DC matrix singular.
		for i := 0; i < s.nNode; i++ {
			base.Add(i, i, 1e-12)
		}
		rhs := make([]float64, s.dim)
		for _, src := range s.nl.ISources {
			iv := alpha * src.W.At(0)
			if src.A >= 0 {
				rhs[int(src.A)] -= iv
			}
			if src.B >= 0 {
				rhs[int(src.B)] += iv
			}
		}
		for i, src := range s.nl.VSources {
			rhs[s.nNode+i] = alpha * src.W.At(0)
		}
		before := s.stats.NewtonIterations
		// The damped DC Newton may need many more iterations than a
		// transient step whose initial guess is already close.
		out, err := s.newtonSolve(base, rhs, guess, 0, 10*maxNewton)
		iters += s.stats.NewtonIterations - before
		return out, err
	}
	// Direct attempt.
	if out, err := solveAt(1, v); err == nil {
		return out, iters, nil
	}
	// Source stepping.
	const steps = 10
	guess := v
	for k := 1; k <= steps; k++ {
		alpha := float64(k) / steps
		out, err := solveAt(alpha, guess)
		if err != nil {
			return nil, iters, fmt.Errorf("spice: DC source stepping failed at α=%.2f: %w", alpha, err)
		}
		guess = out
	}
	return guess, iters, nil
}
