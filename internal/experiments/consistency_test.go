package experiments

import (
	"math"
	"testing"

	"lcsim/internal/interconnect"
	"lcsim/internal/teta"
)

// TestFastPathMatchesExactExtractionDelay is the consistency contract of
// the characterize-once variational macromodel: on the Example-2 coupled
// stage, the fast path's delay must match the per-sample exact-extraction
// path to ≤1% at 1σ sample magnitudes (|wᵢ| = 0.577, the σ of the uniform
// full-band sources), across sign patterns that exercise the coupling
// modes. Full-band corners (|wᵢ| = 1) get a looser 2% bound — still far
// inside the library's own linearization error.
func TestFastPathMatchesExactExtractionDelay(t *testing.T) {
	o := Ex2Options{Samples: 4}
	o.setDefaults()
	st, err := ex2Stage(o, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !st.BuildStats.VarMacro {
		t.Fatalf("variational macromodel not characterized: %s", st.BuildStats.VarMacroNote)
	}
	signs := [][]float64{
		{1, 1, 1, 1, 1},
		{-1, -1, -1, -1, -1},
		{1, -1, 1, -1, 1},
		{-1, 1, -1, 1, -1},
		{1, 1, -1, -1, 1},
	}
	for _, scale := range []float64{0.577, 1.0} {
		limit := 0.01
		if scale == 1.0 {
			limit = 0.02
		}
		for _, sgn := range signs {
			w := map[string]float64{}
			for j, pn := range interconnect.WireParams {
				w[pn] = scale * sgn[j]
			}
			rs := teta.RunSpec{W: w, Inputs: ex2Inputs(o)}
			rf, err := st.Run(rs)
			if err != nil {
				t.Fatalf("fast path at scale %g, signs %v: %v", scale, sgn, err)
			}
			df, err := ex2Delay(o, rf)
			if err != nil {
				t.Fatal(err)
			}
			re, err := st.RunExact(rs)
			if err != nil {
				t.Fatalf("exact path at scale %g, signs %v: %v", scale, sgn, err)
			}
			de, err := ex2Delay(o, re)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(df-de) / de; rel > limit {
				t.Errorf("scale %g, signs %v: fast delay %.4g ps vs exact %.4g ps (%.2f%% > %.0f%%)",
					scale, sgn, df*1e12, de*1e12, 100*rel, 100*limit)
			}
		}
	}
}
