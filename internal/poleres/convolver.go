package poleres

import (
	"fmt"
	"math/cmplx"

	"lcsim/internal/mat"
)

// Convolver evaluates the time-domain port voltages of a pole/residue
// macromodel driven by piecewise-linear port currents, using exact
// recursive convolution per pole:
//
//	v(t+h) = Hist(t) + Zeff·i(t+h)
//
// where Zeff is constant for a fixed step h. This linear splitting is what
// lets TETA's Successive-Chords iteration solve each timestep with one
// small pre-factored system.
//
// Internally the per-pole recursion is laid out as flat real/imaginary
// planes with the residue·coefficient products pre-combined, and conjugate
// pole pairs are evaluated once (the partner's contribution is the
// conjugate, so the pair sums to twice the real part). Both transforms cut
// the per-timestep cost of History/Advance — the dominant terms in the
// sample evaluation profile — without changing the mathematics.
type Convolver struct {
	m  *Macromodel
	h  float64
	np int

	// Memo key for the recurrence coefficients: the exact pole list and
	// step the exp/c0/c1 terms were last computed for. Reconfigure with an
	// equal (poles, h) — the common case when only residues or only device
	// parameters move between samples — skips recomputing them.
	allPoles []complex128

	// Per processed pole (one per conjugate pair, plus real/unpaired).
	nproc  int
	src    []int     // index into m.Poles of each processed pole
	weight []float64 // 2 for a conjugate-pair representative, else 1
	isReal []bool    // pole on the real axis: imaginary planes identically 0
	exp    []complex128
	c0, c1 []complex128

	// Flattened coefficient planes, indexed [(k*np+i)*np+j]:
	// rc0 = Res·c0, rc1 = Res·c1, rp = −Res/p (for InitDC), and the
	// fused-step coefficient g = exp·rc1 + rc0 that advances the rotated
	// state directly: p(t+h) = exp·p(t) + g·i(t).
	rc0Re, rc0Im []float64
	rc1Re, rc1Im []float64
	rpRe, rpIm   []float64
	gRe, gIm     []float64

	// Committed convolution state s, indexed [k*np+i], and the port
	// currents committed with it. InitDC and Reset set s (AdvanceInto
	// refreshes it when it returns voltages); rotate folds s and iPrev
	// into p.
	sRe, sIm []float64
	iPrev    []float64

	// Rotated state p = e·s + (R·c0)·iPrev for the upcoming step: the
	// history is the sum of its real plane, and AdvanceInto moves it one
	// step with the fused g coefficient (one state sweep per timestep).
	// pending reports that p is current; after a reset of s the first
	// HistoryInto or AdvanceInto rotates s into p.
	pRe, pIm []float64
	pending  bool

	zeff *mat.Dense
}

// grow reslices buf to n elements, reusing its backing array when the
// capacity allows.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// Reconfigure re-derives the recursive-convolution recurrence for a (new)
// macromodel and timestep, reusing the receiver's buffers. The convolution
// state is reset. The exp/c0/c1 recurrence coefficients are memoized on
// the exact (poles, h) pair, so evaluations whose sample moves only the
// residues — or nominal re-evaluations — skip the transcendental work.
func (c *Convolver) Reconfigure(m *Macromodel, h float64) error {
	if h <= 0 {
		return fmt.Errorf("poleres: timestep must be positive, got %g", h)
	}
	if !m.IsStable() {
		return fmt.Errorf("poleres: macromodel has %d unstable poles; stabilize before simulation", len(m.UnstablePoles()))
	}
	np := m.Np
	n := len(m.Poles)
	samePoles := h == c.h && len(c.allPoles) == n && c.np == np
	if samePoles {
		for k, p := range m.Poles {
			if c.allPoles[k] != p {
				samePoles = false
				break
			}
		}
	}
	c.m = m
	c.h = h
	c.np = np
	if !samePoles {
		c.allPoles = append(c.allPoles[:0], m.Poles...)
		c.src = c.src[:0]
		c.weight = c.weight[:0]
		c.isReal = c.isReal[:0]
		c.exp = c.exp[:0]
		c.c0 = c.c0[:0]
		c.c1 = c.c1[:0]
		for k := 0; k < n; k++ {
			p := m.Poles[k]
			w := 1.0
			if imag(p) != 0 && k+1 < n && m.Poles[k+1] == cmplx.Conj(p) {
				// Conjugate pair: evaluate the representative only; the
				// partner's state is the exact conjugate so the pair's
				// (real) contribution is 2·Re of the representative's.
				w = 2
			}
			e := cmplx.Exp(p * complex(h, 0))
			// ∫₀ʰ e^{p(h−τ)}·i(τ) dτ with linear i: i0·(a−b) + i1·b,
			// a = (e−1)/p, b = (e−1)/(p²h) − 1/p.
			a := (e - 1) / p
			b := (e-1)/(p*p*complex(h, 0)) - 1/p
			c.src = append(c.src, k)
			c.weight = append(c.weight, w)
			c.isReal = append(c.isReal, imag(p) == 0)
			c.exp = append(c.exp, e)
			c.c0 = append(c.c0, a-b)
			c.c1 = append(c.c1, b)
			if w == 2 {
				k++
			}
		}
		c.nproc = len(c.src)
	}
	plane := c.nproc * np * np
	c.rc0Re = grow(c.rc0Re, plane)
	c.rc0Im = grow(c.rc0Im, plane)
	c.rc1Re = grow(c.rc1Re, plane)
	c.rc1Im = grow(c.rc1Im, plane)
	c.rpRe = grow(c.rpRe, plane)
	c.rpIm = grow(c.rpIm, plane)
	c.gRe = grow(c.gRe, plane)
	c.gIm = grow(c.gIm, plane)
	c.sRe = grow(c.sRe, c.nproc*np)
	c.sIm = grow(c.sIm, c.nproc*np)
	c.pRe = grow(c.pRe, c.nproc*np)
	c.pIm = grow(c.pIm, c.nproc*np)
	c.iPrev = grow(c.iPrev, np)
	if c.zeff == nil || c.zeff.Rows() != np {
		c.zeff = mat.NewDense(np, np)
	}
	c.zeff.CopyFrom(m.D0)
	for k := 0; k < c.nproc; k++ {
		r := m.Res[c.src[k]]
		p := m.Poles[c.src[k]]
		c0, c1 := c.c0[k], c.c1[k]
		e := c.exp[k]
		w := c.weight[k]
		base := k * np * np
		for i := 0; i < np; i++ {
			row := r.Row(i)
			zr := c.zeff.Row(i)
			off := base + i*np
			for j := 0; j < np; j++ {
				v := row[j]
				v0 := v * c0
				v1 := v * c1
				vp := -v / p
				vg := e*v1 + v0
				c.rc0Re[off+j] = real(v0)
				c.rc0Im[off+j] = imag(v0)
				c.rc1Re[off+j] = real(v1)
				c.rc1Im[off+j] = imag(v1)
				c.rpRe[off+j] = real(vp)
				c.rpIm[off+j] = imag(vp)
				c.gRe[off+j] = real(vg)
				c.gIm[off+j] = imag(vg)
				zr[j] += w * real(v1)
			}
		}
	}
	c.Reset()
	return nil
}

// EffZView returns the effective impedance without cloning. The matrix is
// owned by the convolver: treat it as read-only, valid until the next
// Reconfigure.
func (c *Convolver) EffZView() *mat.Dense { return c.zeff }

// HistoryInto computes the history vector into dst (length Np) without
// allocating — the per-timestep entry point of Stage.Run's SC loop. It
// sums the real plane of the rotated state p, rotating s into p first
// when the state was just reset.
func (c *Convolver) HistoryInto(dst []float64) {
	np := c.np
	if len(dst) != np {
		panic(fmt.Sprintf("poleres: HistoryInto got %d ports, want %d", len(dst), np))
	}
	if !c.pending {
		c.rotate()
	}
	for i := range dst {
		dst[i] = 0
	}
	for k := 0; k < c.nproc; k++ {
		w := c.weight[k]
		p := c.pRe[k*np : k*np+np]
		for i, pv := range p {
			dst[i] += w * pv
		}
	}
}

// rotate sets p = e·s + (R·c0)·iPrev from the committed state.
func (c *Convolver) rotate() {
	np := c.np
	iPrev := c.iPrev
	for k := 0; k < c.nproc; k++ {
		er, ei := real(c.exp[k]), imag(c.exp[k])
		base := k * np * np
		soff := k * np
		if c.isReal[k] {
			for i := 0; i < np; i++ {
				acc := er * c.sRe[soff+i]
				row := c.rc0Re[base+i*np : base+i*np+np]
				for j, ip := range iPrev {
					acc += row[j] * ip
				}
				c.pRe[soff+i] = acc
				c.pIm[soff+i] = 0
			}
			continue
		}
		for i := 0; i < np; i++ {
			sr, si := c.sRe[soff+i], c.sIm[soff+i]
			xr := er*sr - ei*si
			xi := er*si + ei*sr
			off := base + i*np
			r0r := c.rc0Re[off : off+np]
			r0i := c.rc0Im[off : off+np]
			for j, ip := range iPrev {
				xr += r0r[j] * ip
				xi += r0i[j] * ip
			}
			c.pRe[soff+i] = xr
			c.pIm[soff+i] = xi
		}
	}
	c.pending = true
}

// Advance commits the step with final port currents i1 and returns the
// port voltages at t+h.
func (c *Convolver) Advance(i1 []float64) []float64 {
	v := make([]float64, c.np)
	c.AdvanceInto(v, i1)
	return v
}

// AdvanceInto commits the step with final port currents i1, writing the
// port voltages at t+h into dst. dst may be nil when the caller already
// knows the converged voltages (the SC loop does) and only needs the
// state update. No allocation happens.
func (c *Convolver) AdvanceInto(dst, i1 []float64) {
	np := c.np
	if len(i1) != np {
		panic(fmt.Sprintf("poleres: Advance got %d currents for %d ports", len(i1), np))
	}
	if dst != nil {
		for i := range dst {
			dst[i] = 0
		}
	}
	if !c.pending {
		c.rotate()
	}
	// Fused step: p(t) already folds in iPrev, so p(t+h) = exp·p(t) +
	// g·i1 advances the recursion in one sweep and the next HistoryInto
	// just sums p. When the caller wants the committed voltages,
	// s(t+h) = p(t) + rc1·i1 is produced and stored.
	for k := 0; k < c.nproc; k++ {
		w := c.weight[k]
		er, ei := real(c.exp[k]), imag(c.exp[k])
		base := k * np * np
		soff := k * np
		if c.isReal[k] {
			for i := 0; i < np; i++ {
				off := base + i*np
				g := c.gRe[off : off+np]
				pr := c.pRe[soff+i]
				x := er * pr
				for j, iv := range i1 {
					x += g[j] * iv
				}
				if dst != nil {
					s := pr
					r1 := c.rc1Re[off : off+np]
					for j, iv := range i1 {
						s += r1[j] * iv
					}
					c.sRe[soff+i] = s
					dst[i] += w * s
				}
				c.pRe[soff+i] = x
			}
			continue
		}
		for i := 0; i < np; i++ {
			off := base + i*np
			gr := c.gRe[off : off+np]
			gi := c.gIm[off : off+np]
			pr, pi := c.pRe[soff+i], c.pIm[soff+i]
			xr := er*pr - ei*pi
			xi := er*pi + ei*pr
			for j, iv := range i1 {
				xr += gr[j] * iv
				xi += gi[j] * iv
			}
			if dst != nil {
				sr, si := pr, pi
				r1r := c.rc1Re[off : off+np]
				r1i := c.rc1Im[off : off+np]
				for j, iv := range i1 {
					sr += r1r[j] * iv
					si += r1i[j] * iv
				}
				c.sRe[soff+i] = sr
				c.sIm[soff+i] = si
				dst[i] += w * sr
			}
			c.pRe[soff+i] = xr
			c.pIm[soff+i] = xi
		}
	}
	c.finishAdvance(dst, i1)
}

// finishAdvance applies the instantaneous D0 term and commits i1 as the
// previous-step current.
func (c *Convolver) finishAdvance(dst, i1 []float64) {
	if dst != nil {
		for i := 0; i < c.np; i++ {
			row := c.m.D0.Row(i)
			s := dst[i]
			for j, iv := range i1 {
				s += row[j] * iv
			}
			dst[i] = s
		}
	}
	copy(c.iPrev, i1)
}

// SetInitialCurrent sets i(0) for the first interval (the convolver
// otherwise assumes the port currents ramp up from zero over the first
// step).
func (c *Convolver) SetInitialCurrent(i0 []float64) {
	if len(i0) != c.np {
		panic(fmt.Sprintf("poleres: SetInitialCurrent got %d currents for %d ports", len(i0), c.np))
	}
	copy(c.iPrev, i0)
	c.pending = false
}

// InitDC presets the convolution states to the steady-state response of
// constant port currents idc (x_k = −R_k·idc/p_k), so the transient
// starts from the DC operating point rather than a relaxed network.
func (c *Convolver) InitDC(idc []float64) {
	np := c.np
	if len(idc) != np {
		panic(fmt.Sprintf("poleres: InitDC got %d currents for %d ports", len(idc), np))
	}
	for k := 0; k < c.nproc; k++ {
		base := k * np * np
		soff := k * np
		for i := 0; i < np; i++ {
			off := base + i*np
			rr := c.rpRe[off : off+np]
			ri := c.rpIm[off : off+np]
			ar, ai := 0.0, 0.0
			for j, iv := range idc {
				ar += rr[j] * iv
				ai += ri[j] * iv
			}
			c.sRe[soff+i] = ar
			c.sIm[soff+i] = ai
		}
	}
	copy(c.iPrev, idc)
	c.pending = false
}

// Reset clears the convolution history.
func (c *Convolver) Reset() {
	for i := range c.sRe {
		c.sRe[i] = 0
		c.sIm[i] = 0
	}
	for i := range c.iPrev {
		c.iPrev[i] = 0
	}
	c.pending = false
}
