package poleres

import (
	"math"
	"testing"
	"testing/quick"

	"lcsim/internal/mat"
)

// randomStableModel builds a deterministic stable macromodel from a seed.
func randomStableModel(seed int64, np int) *Macromodel {
	m := &Macromodel{Np: np, D0: mat.NewDense(np, np)}
	s := uint64(seed)*2654435761 + 1
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%1000)/1000 - 0.5
	}
	for i := 0; i < np; i++ {
		m.D0.Set(i, i, 1+next())
	}
	for k := 0; k < 3; k++ {
		p := complex(-1e9*(1+2*math.Abs(next())), 0)
		res := mat.NewCDense(np, np)
		for i := 0; i < np; i++ {
			for j := 0; j < np; j++ {
				res.Set(i, j, complex(-real(p)*(0.5+next()), 0)) // positive DC-ish
			}
		}
		m.Poles = append(m.Poles, p)
		m.Res = append(m.Res, res)
	}
	return m
}

// Property: superposition — the convolver response to i1+i2 equals the sum
// of the separate responses (it is an LTI operator).
func TestConvolverSuperpositionProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := randomStableModel(seed, 2)
		h := 1e-11
		mk := func() *Convolver {
			c, err := newConvolver(m, h)
			if err != nil {
				return nil
			}
			return c
		}
		c1, c2, c12 := mk(), mk(), mk()
		if c1 == nil {
			return true
		}
		i1 := []float64{1e-3, 0}
		i2 := []float64{0, -2e-3}
		both := []float64{1e-3, -2e-3}
		for step := 0; step < 20; step++ {
			v1 := c1.Advance(i1)
			v2 := c2.Advance(i2)
			v12 := c12.Advance(both)
			for p := 0; p < 2; p++ {
				if math.Abs(v12[p]-(v1[p]+v2[p])) > 1e-9*(1+math.Abs(v12[p])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: time invariance — delaying the input by k steps delays the
// output by k steps.
func TestConvolverTimeInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := randomStableModel(seed, 1)
		h := 2e-11
		c1, err := newConvolver(m, h)
		if err != nil {
			return true
		}
		c2, _ := newConvolver(m, h)
		const delay = 5
		const steps = 30
		drive := func(step int) []float64 {
			if step >= 3 {
				return []float64{1e-3}
			}
			return []float64{0}
		}
		var out1, out2 []float64
		for s := 0; s < steps; s++ {
			out1 = append(out1, c1.Advance(drive(s))[0])
		}
		for s := 0; s < steps+delay; s++ {
			out2 = append(out2, c2.Advance(drive(s - delay))[0])
		}
		for s := 0; s < steps; s++ {
			if math.Abs(out1[s]-out2[s+delay]) > 1e-12+1e-9*math.Abs(out1[s]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the DC steady state of Advance with constant current equals
// DCZ·i for any stable model.
func TestConvolverDCSteadyStateProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := randomStableModel(seed, 2)
		// Slowest pole sets the settling horizon.
		slowest := 0.0
		for _, p := range m.Poles {
			tau := -1 / real(p)
			if tau > slowest {
				slowest = tau
			}
		}
		h := slowest / 50
		c, err := newConvolver(m, h)
		if err != nil {
			return true
		}
		i := []float64{1e-3, 0.5e-3}
		c.InitDC(i)
		v := c.Advance(i)
		want := mat.MulVec(m.DCZ(), i)
		for p := 0; p < 2; p++ {
			if math.Abs(v[p]-want[p]) > 1e-6*(1+math.Abs(want[p])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
