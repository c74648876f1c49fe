package interconnect

import "math"

// epsOx is the permittivity of SiO2 in F/m.
const epsOx = 3.9 * 8.854e-12

// PUL holds per-unit-length electrical values of a wire in a coupled bus:
// series resistance, capacitance to ground and coupling capacitance to one
// neighbouring wire.
type PUL struct {
	R  float64 // ohm/m
	Cg float64 // F/m to ground
	Cc float64 // F/m to one adjacent line
}

// SakuraiPUL evaluates Sakurai's closed-form expressions (IEEE Trans. ED,
// 1993; constants from Sakurai–Tamaru 1983) for per-unit-length values of
// a line of width W, thickness T at height H over the ground plane, spaced
// S from its neighbours, with metal resistivity rho:
//
//	R   = ρ / (W·T)
//	Cg  = ε(1.15·W/H + 2.80·(T/H)^0.222)
//	Cc  = ε(0.03·W/H + 0.83·T/H − 0.07·(T/H)^0.222)·(S/H)^−1.34
func SakuraiPUL(t WireTech) PUL {
	wh := t.Width / t.ILD
	th := t.Thickness / t.ILD
	sh := t.Spacing / t.ILD
	th222 := math.Pow(th, 0.222)
	cc := epsOx * (0.03*wh + 0.83*th - 0.07*th222) * math.Pow(sh, -1.34)
	if cc < 0 {
		cc = 0
	}
	return PUL{
		R:  t.Resistivity / (t.Width * t.Thickness),
		Cg: epsOx * (1.15*wh + 2.80*th222),
		Cc: cc,
	}
}

// PULSensitivity returns d(PUL)/dw for one normalized variation parameter,
// evaluated by central finite difference around nominal. The derivative is
// with respect to the normalized parameter (so w = 1 means the +3σ
// corner), which makes it directly usable as the affine sensitivity in a
// circuit.Value.
func PULSensitivity(t WireTech, param string) PUL {
	const h = 1e-4
	plus := SakuraiPUL(t.At(map[string]float64{param: h}))
	minus := SakuraiPUL(t.At(map[string]float64{param: -h}))
	return PUL{
		R:  (plus.R - minus.R) / (2 * h),
		Cg: (plus.Cg - minus.Cg) / (2 * h),
		Cc: (plus.Cc - minus.Cc) / (2 * h),
	}
}
