package teta

import (
	"errors"
	"math"
	"sync"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
)

// nanAfter is a rising input ramp that turns NaN at time at.
type nanAfter struct {
	circuit.SatRamp
	at float64
}

func (w nanAfter) At(t float64) float64 {
	if t >= w.at {
		return math.NaN()
	}
	return w.SatRamp.At(t)
}

// TestNaNUpdateDiverges checks that a NaN port-voltage update ends the
// transient with ErrSCDiverged on every evaluation path instead of
// "converging" to a waveform full of NaNs.
func TestNaNUpdateDiverges(t *testing.T) {
	st := variationalLineStage(t, Config{Tech: device.Tech180, DT: 4e-12, TStop: 1.5e-9, Order: 4})
	if !st.BuildStats.VarMacro {
		t.Fatalf("variational macromodel unavailable: %s", st.BuildStats.VarMacroNote)
	}
	in := nanAfter{SatRamp: circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}, at: 0.5e-9}
	rs := RunSpec{W: map[string]float64{interconnect.ParamW: 0.2}, Inputs: [][]circuit.Waveform{{in}}}
	for name, run := range map[string]func(RunSpec) (*Result, error){
		"Run":       st.Run,
		"RunWith":   func(rs RunSpec) (*Result, error) { return st.RunWith(st.NewScratch(), rs) },
		"RunExact":  st.RunExact,
		"RunDirect": st.RunDirect,
	} {
		if _, err := run(rs); !errors.Is(err, ErrSCDiverged) {
			t.Errorf("%s: got error %v, want one wrapping ErrSCDiverged", name, err)
		}
	}
}

// TestPooledExactRunsConcurrent checks that RunExact and RunDirect, which
// share the stage's scratch pool, return results bit-identical to serial
// calls when run from several goroutines on one stage.
func TestPooledExactRunsConcurrent(t *testing.T) {
	st := variationalLineStage(t, Config{Tech: device.Tech180, DT: 4e-12, TStop: 1e-9, Order: 4})
	in := [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}}}
	var specs []RunSpec
	for _, w := range []float64{-0.3, 0, 0.2, 0.5} {
		specs = append(specs, RunSpec{W: map[string]float64{interconnect.ParamW: w}, DVT: w / 10, Inputs: in})
	}
	runs := []func(RunSpec) (*Result, error){st.RunExact, st.RunDirect}
	want := make([][]*Result, len(runs))
	for r, run := range runs {
		for _, rs := range specs {
			res, err := run(rs)
			if err != nil {
				t.Fatal(err)
			}
			want[r] = append(want[r], res)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(runs)*len(specs))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r, run := range runs {
				for k := range specs {
					i := (k + g) % len(specs)
					res, err := run(specs[i])
					if err != nil {
						errs <- err
						continue
					}
					if !sameResult(res, want[r][i]) {
						errs <- errors.New("concurrent result differs from the serial one")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sameResult reports bit-for-bit equality of two results.
func sameResult(a, b *Result) bool {
	if a.Stats != b.Stats || len(a.T) != len(b.T) || len(a.PortV) != len(b.PortV) {
		return false
	}
	for i := range a.T {
		if math.Float64bits(a.T[i]) != math.Float64bits(b.T[i]) {
			return false
		}
	}
	for p := range a.PortV {
		for i := range a.PortV[p] {
			if math.Float64bits(a.PortV[p][i]) != math.Float64bits(b.PortV[p][i]) {
				return false
			}
		}
	}
	return true
}
