// Package interconnect models on-chip wiring: Sakurai closed-form
// resistance/capacitance formulas, technology descriptors with 3σ
// manufacturing tolerances (after Nassif, CICC 2001), and builders that
// expand wire geometry into coupled RC segment netlists with variational
// element values (one segment per micron, as in the paper's Example 2).
package interconnect

import "fmt"

// Variation-parameter names used for wire geometry. A parameter value of
// +1 means the corresponding physical quantity sits at its +3σ corner.
const (
	ParamW   = "W"   // wire width
	ParamT   = "T"   // wire thickness
	ParamS   = "S"   // wire spacing
	ParamH   = "H"   // inter-layer dielectric thickness
	ParamRho = "RHO" // metal resistivity
)

// WireParams lists all wire variation parameters.
var WireParams = []string{ParamW, ParamT, ParamS, ParamH, ParamRho}

// WireTech describes minimum-pitch wiring geometry for a technology node.
// Tolerances are 3σ fractions of nominal (e.g. 0.25 means ±25% at 3σ).
type WireTech struct {
	Name string

	Width       float64 // m
	Thickness   float64 // m
	Spacing     float64 // m
	ILD         float64 // m, dielectric height above the ground plane
	Resistivity float64 // ohm·m

	TolW, TolT, TolS, TolH, TolRho float64 // 3σ fractional tolerances
}

// Wire180 is minimum-width metal for a 0.18 µm technology. Nominal
// geometry and the 3σ tolerance classes follow the published 180 nm data
// of Nassif (CICC 2001); see DESIGN.md for the substitution note.
var Wire180 = WireTech{
	Name:        "0.18um",
	Width:       0.28e-6,
	Thickness:   0.45e-6,
	Spacing:     0.28e-6,
	ILD:         0.65e-6,
	Resistivity: 2.2e-8,
	TolW:        0.20,
	TolT:        0.25,
	TolS:        0.20,
	TolH:        0.30,
	TolRho:      0.20,
}

// Wire600 is minimum-width metal for a 0.6 µm technology (Example 1's
// inverter technology).
var Wire600 = WireTech{
	Name:        "0.6um",
	Width:       0.9e-6,
	Thickness:   0.9e-6,
	Spacing:     0.9e-6,
	ILD:         1.0e-6,
	Resistivity: 3.0e-8,
	TolW:        0.15,
	TolT:        0.15,
	TolS:        0.15,
	TolH:        0.20,
	TolRho:      0.15,
}

// Nominal returns the nominal value of a named geometry parameter.
func (t WireTech) Nominal(param string) (float64, error) {
	switch param {
	case ParamW:
		return t.Width, nil
	case ParamT:
		return t.Thickness, nil
	case ParamS:
		return t.Spacing, nil
	case ParamH:
		return t.ILD, nil
	case ParamRho:
		return t.Resistivity, nil
	}
	return 0, fmt.Errorf("interconnect: unknown parameter %q", param)
}

// At returns a copy of the technology with geometry shifted to a sample of
// normalized parameters: each w in [-1, 1] moves the quantity by w·3σ.
func (t WireTech) At(w map[string]float64) WireTech {
	out := t
	out.Width *= 1 + t.TolW*w[ParamW]
	out.Thickness *= 1 + t.TolT*w[ParamT]
	out.Spacing *= 1 + t.TolS*w[ParamS]
	out.ILD *= 1 + t.TolH*w[ParamH]
	out.Resistivity *= 1 + t.TolRho*w[ParamRho]
	return out
}
