package core

import (
	"fmt"

	"lcsim/internal/device"
	"lcsim/internal/interconnect"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// Source is one global variation source. Values are in the source's
// natural units: normalized (±1 = ±3σ corner) for wire parameters, meters
// for DL, volts for DVT.
type Source struct {
	Name  string
	Sigma float64   // standard deviation in natural units
	Dist  stat.Dist // sampling distribution (defaults to Normal{0, Sigma})

	Wire  string // wire parameter name (interconnect.Param*), or ""
	IsDL  bool   // channel-length reduction
	IsDVT bool   // threshold-voltage shift
}

// SampleDist returns the distribution the source is sampled from: Dist,
// or Normal(0, Sigma) when Dist is nil.
func (s Source) SampleDist() stat.Dist {
	if s.Dist != nil {
		return s.Dist
	}
	return stat.Normal{Mean: 0, Sigma: s.Sigma}
}

// Apply folds a sampled value into a RunSpec.
func (s Source) Apply(rs *teta.RunSpec, value float64) {
	switch {
	case s.Wire != "":
		if rs.W == nil {
			rs.W = map[string]float64{}
		}
		rs.W[s.Wire] += value
	case s.IsDL:
		rs.DL += value
	case s.IsDVT:
		rs.DVT += value
	}
}

// Validate checks the source definition.
func (s Source) Validate() error {
	n := 0
	if s.Wire != "" {
		n++
	}
	if s.IsDL {
		n++
	}
	if s.IsDVT {
		n++
	}
	if n != 1 {
		return fmt.Errorf("core: source %q must target exactly one of Wire/DL/DVT", s.Name)
	}
	if s.Sigma <= 0 {
		return fmt.Errorf("core: source %q needs positive sigma", s.Name)
	}
	return nil
}

// BuildRunSpec folds a full sample vector into a fresh RunSpec.
func BuildRunSpec(sources []Source, values []float64) teta.RunSpec {
	var rs teta.RunSpec
	for i, s := range sources {
		s.Apply(&rs, values[i])
	}
	return rs
}

// DeviceSources returns the paper's Example-3 nonlinear variation sources
// for a technology: channel-length reduction and threshold shift, each
// with the given normalized standard deviation (std(DL), std(VT) in the
// paper's Table 5 are fractions of the 3σ tolerance class).
func DeviceSources(tech *device.ModelSet, stdDL, stdVT float64) []Source {
	var out []Source
	if stdDL > 0 {
		out = append(out, Source{Name: "DL", Sigma: stdDL * tech.TolDL, IsDL: true})
	}
	if stdVT > 0 {
		out = append(out, Source{Name: "VT", Sigma: stdVT * tech.TolDVT, IsDVT: true})
	}
	return out
}

// WireSources returns one source per wire geometry parameter with the
// given standard deviation in normalized (3σ corner = 1) units.
func WireSources(sigma float64) []Source {
	out := make([]Source, 0, len(interconnect.WireParams))
	for _, p := range interconnect.WireParams {
		out = append(out, Source{Name: "wire:" + p, Sigma: sigma, Wire: p})
	}
	return out
}

// UniformWireSources returns wire sources sampled uniformly over the full
// tolerance band (Example 2's sampling plan).
func UniformWireSources() []Source {
	out := make([]Source, 0, len(interconnect.WireParams))
	for _, p := range interconnect.WireParams {
		out = append(out, Source{
			Name:  "wire:" + p,
			Sigma: 1.0 / 1.7320508, // uniform on [-1,1]
			Dist:  stat.Uniform{Lo: -1, Hi: 1},
			Wire:  p,
		})
	}
	return out
}
