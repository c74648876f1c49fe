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

// sideLevels holds, per cell, the logic levels of inputs 1..NIn-1 that
// let input 0 control the output: the side inputs the path builder ties
// off (core's signal table).
var sideLevels = map[string][]float64{
	"INV": nil, "BUF": nil,
	"NAND2": {1}, "NAND3": {1, 1},
	"NOR2": {0}, "NOR3": {0, 0},
	"AOI21": {1, 0}, "OAI21": {0, 1},
	"XOR2": {0}, "MUX2": {0, 0},
	"AND2": {1}, "OR2": {0},
}

// TestDCSettleNeverStalls runs the DC start of a one-driver stage for
// every library cell plus AND2 and OR2, with the side inputs at their
// non-controlling levels and input 0 at 0 and at VDD, at nominal device
// parameters and at the ±3σ DL/DVT corners, and requires every settle of
// the drivers' internal nodes to converge before its iteration limit.
// OAI21 with a = b = 0 and c = VDD is the case a chord-only settle
// stalls on: its mid node charges through the c-gated NMOS toward
// cutoff, where the max chord barely contracts.
func TestDCSettleNeverStalls(t *testing.T) {
	tech := device.Tech180
	cfg := Config{Tech: tech, DT: 4e-12, TStop: 10 * 4e-12, Order: 4}
	corners := [][2]float64{{0, 0}, {1, 1}, {-1, -1}, {1, -1}, {-1, 1}}
	for _, name := range append(device.CellNames(), "AND2", "OR2") {
		cell, err := device.LookupCell(name)
		if err != nil {
			t.Fatal(err)
		}
		side, ok := sideLevels[name]
		if !ok || len(side) != cell.NIn-1 {
			t.Fatalf("%s: no side levels for %d inputs", name, cell.NIn)
		}
		load := circuit.New()
		out := interconnect.AddLine(load, interconnect.Wire180, "near", "w", 20, 2, false)
		load.MarkPort("near")
		load.MarkPort(out)
		load.AddC("Crcv", out, "0", circuit.V(2e-15))
		st, err := BuildStage(load, []DriverSpec{{Name: "d", Cell: cell, Drive: 2, Port: 0}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc := st.NewScratch()
		for _, in0 := range []float64{0, tech.VDD} {
			inputs := []circuit.Waveform{circuit.DC(in0)}
			for _, l := range side {
				inputs = append(inputs, circuit.DC(l*tech.VDD))
			}
			for _, c := range corners {
				rs := RunSpec{DL: c[0] * tech.TolDL, DVT: c[1] * tech.TolDVT, Inputs: [][]circuit.Waveform{inputs}}
				before := sc.settleStalls
				if _, err := st.RunWith(sc, rs); err != nil {
					t.Fatalf("%s in0=%g corner %v: %v", name, in0, c, err)
				}
				if n := sc.settleStalls - before; n > 0 {
					t.Errorf("%s in0=%g corner %v: %d internal-node settles reached the %d-iteration limit", name, in0, c, n, dcSettleMax)
				}
			}
		}
	}
}
