package circuit

import (
	"fmt"
	"sort"
	"strings"
)

// Value is an element value that is affine in a set of named global
// variation parameters, the form assumed by variational reduced-order
// modeling (paper eqs. 3–4):
//
//	v(w) = Nominal + Σ_p Sens[p]·w_p
//
// A Value with an empty Sens map is deterministic.
type Value struct {
	Nominal float64
	Sens    map[string]float64
}

// V constructs a deterministic value.
func V(nominal float64) Value { return Value{Nominal: nominal} }

// VarV constructs a variational value from (param, sensitivity) pairs.
func VarV(nominal float64, pairs ...any) Value {
	if len(pairs)%2 != 0 {
		panic("circuit: VarV needs (name, sens) pairs")
	}
	v := Value{Nominal: nominal}
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("circuit: VarV pair %d: name must be a string", i/2))
		}
		var s float64
		switch x := pairs[i+1].(type) {
		case float64:
			s = x
		case int:
			s = float64(x)
		default:
			panic(fmt.Sprintf("circuit: VarV pair %d: sensitivity must be numeric", i/2))
		}
		v = v.WithSens(name, s)
	}
	return v
}

// WithSens returns a copy of v with an added (accumulated) sensitivity.
func (v Value) WithSens(param string, sens float64) Value {
	out := Value{Nominal: v.Nominal, Sens: make(map[string]float64, len(v.Sens)+1)}
	for k, s := range v.Sens {
		out.Sens[k] = s
	}
	out.Sens[param] += sens
	return out
}

// Eval returns the exact value at a parameter sample. Missing parameters
// evaluate as zero deviation. The terms are added in parameter-name
// order: map order is random, and with two or more terms the rounding
// of the running sum depends on that order, so the same sample would
// otherwise evaluate to different low bits from call to call.
func (v Value) Eval(w map[string]float64) float64 {
	out := v.Nominal
	for _, p := range v.Params() {
		out += v.Sens[p] * w[p]
	}
	return out
}

// IsVariational reports whether the value depends on any parameter.
func (v Value) IsVariational() bool {
	for _, s := range v.Sens {
		if s != 0 {
			return true
		}
	}
	return false
}

// Params returns the sorted parameter names the value depends on.
func (v Value) Params() []string {
	out := make([]string, 0, len(v.Sens))
	for p, s := range v.Sens {
		if s != 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the value for diagnostics.
func (v Value) String() string {
	if !v.IsVariational() {
		return fmt.Sprintf("%g", v.Nominal)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%g", v.Nominal)
	for _, p := range v.Params() {
		fmt.Fprintf(&b, " %+g·%s", v.Sens[p], p)
	}
	return b.String()
}
