package spice

import (
	"math"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
)

func TestPulseTrainRC(t *testing.T) {
	// A periodic pulse through an RC must settle into a repeating pattern;
	// check period-to-period repeatability after a few cycles.
	nl := circuit.New()
	nl.AddV("V1", "in", "0", circuit.Pulse{
		V1: 0, V2: 1, Delay: 0, Rise: 50e-12, Fall: 50e-12, Width: 400e-12, Period: 1e-9,
	})
	nl.AddR("R1", "in", "out", circuit.V(500))
	nl.AddC("C1", "out", "0", circuit.V(100e-15))
	sim, err := NewSimulator(nl, Options{DT: 5e-12, TStop: 6e-9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := res.Waveform("out")
	if err != nil {
		t.Fatal(err)
	}
	// Compare cycle 5 against cycle 6 at matching phases.
	for phase := 0.0; phase < 1e-9; phase += 97e-12 {
		v5 := wf.At(4e-9 + phase)
		v6 := wf.At(5e-9 + phase)
		if math.Abs(v5-v6) > 1e-3 {
			t.Fatalf("pulse train not periodic at phase %g: %g vs %g", phase, v5, v6)
		}
	}
}

func TestSineSteadyStateAmplitude(t *testing.T) {
	// RC low-pass driven far below its corner passes the sine through.
	nl := circuit.New()
	nl.AddV("V1", "in", "0", circuit.Sine{Offset: 0.5, Amp: 0.25, Freq: 1e7})
	nl.AddR("R1", "in", "out", circuit.V(100))
	nl.AddC("C1", "out", "0", circuit.V(1e-15)) // corner ~1.6 THz·10⁻³...
	sim, err := NewSimulator(nl, Options{DT: 1e-9, TStop: 300e-9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, tt := range res.T {
		if tt < 100e-9 {
			continue
		}
		v := res.V["out"][i]
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.Abs(hi-0.75) > 0.01 || math.Abs(lo-0.25) > 0.01 {
		t.Fatalf("sine envelope [%g, %g], want [0.25, 0.75]", lo, hi)
	}
}

func TestCurrentSourceIntoCap(t *testing.T) {
	// Constant current into a grounded cap ramps linearly: v = I·t/C.
	nl := circuit.New()
	// Current flows from "0" through the source into "n": our convention
	// removes I from A and delivers it to B. The source switches on at
	// t=0+ so the DC point starts at 0 V.
	nl.AddI("I1", "0", "n", circuit.Pulse{V1: 0, V2: 1e-6, Rise: 1e-12, Width: 1})
	nl.AddC("C1", "n", "0", circuit.V(1e-12))
	nl.AddR("Rleak", "n", "0", circuit.V(1e9)) // keeps DC well-posed; τ ≫ window
	sim, err := NewSimulator(nl, Options{DT: 1e-11, TStop: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]string{"n"})
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range res.T {
		want := 1e-6 * tt / 1e-12
		if math.Abs(res.V["n"][i]-want) > 0.02*want+1e-6 {
			t.Fatalf("cap ramp at t=%g: %g, want %g", tt, res.V["n"][i], want)
		}
	}
}

func TestConductorElementInTransient(t *testing.T) {
	// A Conductor must behave identically to the equivalent Resistor.
	run := func(useG bool) []float64 {
		nl := circuit.New()
		nl.AddV("V1", "in", "0", circuit.SatRamp{V0: 0, V1: 1, Start: 1e-10, Slew: 1e-10})
		if useG {
			nl.AddG("G1", "in", "out", circuit.V(1e-3))
		} else {
			nl.AddR("R1", "in", "out", circuit.V(1000))
		}
		nl.AddC("C1", "out", "0", circuit.V(1e-12))
		sim, err := NewSimulator(nl, Options{DT: 1e-11, TStop: 5e-9})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run([]string{"out"})
		if err != nil {
			t.Fatal(err)
		}
		return res.V["out"]
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("conductor differs from resistor at %d: %g vs %g", i, b[i], a[i])
		}
	}
}

func TestNANDGateLogic(t *testing.T) {
	// DC truth table of the transistor-level NAND2.
	cases := []struct {
		a, b float64
		out  float64
	}{
		{0, 0, 1.8}, {0, 1.8, 1.8}, {1.8, 0, 1.8}, {1.8, 1.8, 0},
	}
	for _, tc := range cases {
		nl := circuit.New()
		nl.AddV("VDD", "vdd", "0", circuit.DC(1.8))
		nl.AddV("VA", "a", "0", circuit.DC(tc.a))
		nl.AddV("VB", "b", "0", circuit.DC(tc.b))
		if err := device.NAND2.Instantiate(nl, "u1", []string{"a", "b"}, "out", device.BuildOpts{Tech: device.Tech180}); err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulator(nl, Options{DT: 1e-12, TStop: 1e-12, Models: device.Tech180})
		if err != nil {
			t.Fatal(err)
		}
		v, err := operatingPoint(sim)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v[nl.Node("out")]-tc.out) > 0.05 {
			t.Fatalf("NAND(%g,%g) = %g, want %g", tc.a, tc.b, v[nl.Node("out")], tc.out)
		}
	}
}

func TestAllCellsDCFunctional(t *testing.T) {
	// Every library cell must reach a valid rail-ish output for at least
	// one input assignment in DC — catches netlist topology errors.
	for _, name := range device.CellNames() {
		cell, err := device.LookupCell(name)
		if err != nil {
			t.Fatal(err)
		}
		nl := circuit.New()
		nl.AddV("VDD", "vdd", "0", circuit.DC(1.8))
		ins := make([]string, cell.NIn)
		for i := range ins {
			ins[i] = string(rune('a' + i))
			nl.AddV("V"+ins[i], ins[i], "0", circuit.DC(0))
		}
		if err := cell.Instantiate(nl, "u1", ins, "out", device.BuildOpts{Tech: device.Tech180}); err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulator(nl, Options{DT: 1e-12, TStop: 1e-12, Models: device.Tech180})
		if err != nil {
			t.Fatal(err)
		}
		v, err := operatingPoint(sim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := v[nl.Node("out")]
		if out < -0.05 || out > 1.85 {
			t.Fatalf("%s output %g out of rails", name, out)
		}
		if out > 0.1 && out < 1.7 {
			t.Fatalf("%s output %g not at a rail with all-low inputs", name, out)
		}
	}
}

// cellTruth evaluates the intended boolean function of each library cell.
var cellTruth = map[string]func(in []bool) bool{
	"INV":   func(in []bool) bool { return !in[0] },
	"BUF":   func(in []bool) bool { return in[0] },
	"NAND2": func(in []bool) bool { return !(in[0] && in[1]) },
	"NAND3": func(in []bool) bool { return !(in[0] && in[1] && in[2]) },
	"NOR2":  func(in []bool) bool { return !(in[0] || in[1]) },
	"NOR3":  func(in []bool) bool { return !(in[0] || in[1] || in[2]) },
	"AOI21": func(in []bool) bool { return !((in[0] && in[1]) || in[2]) },
	"OAI21": func(in []bool) bool { return !((in[0] || in[1]) && in[2]) },
	"XOR2":  func(in []bool) bool { return in[0] != in[1] },
	"MUX2": func(in []bool) bool { // inputs: in0, in1, sel
		if in[2] {
			return in[1]
		}
		return in[0]
	},
	"AND2": func(in []bool) bool { return in[0] && in[1] },
	"OR2":  func(in []bool) bool { return in[0] || in[1] },
}

func TestCellTruthTables(t *testing.T) {
	// Exhaustive DC truth tables for every cell, including the derived
	// composites — the definitive check that the transistor netlists
	// implement their intended logic.
	names := append(device.CellNames(), "AND2", "OR2")
	for _, name := range names {
		fn, ok := cellTruth[name]
		if !ok {
			t.Fatalf("no truth function for %s", name)
		}
		cell, err := device.LookupCell(name)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 1<<cell.NIn; mask++ {
			nl := circuit.New()
			nl.AddV("VDD", "vdd", "0", circuit.DC(1.8))
			ins := make([]string, cell.NIn)
			logic := make([]bool, cell.NIn)
			for i := range ins {
				ins[i] = string(rune('a' + i))
				logic[i] = mask&(1<<i) != 0
				val := 0.0
				if logic[i] {
					val = 1.8
				}
				nl.AddV("V"+ins[i], ins[i], "0", circuit.DC(val))
			}
			if err := cell.Instantiate(nl, "u1", ins, "out", device.BuildOpts{Tech: device.Tech180}); err != nil {
				t.Fatal(err)
			}
			sim, err := NewSimulator(nl, Options{DT: 1e-12, TStop: 1e-12, Models: device.Tech180})
			if err != nil {
				t.Fatal(err)
			}
			v, err := operatingPoint(sim)
			if err != nil {
				t.Fatalf("%s mask %b: %v", name, mask, err)
			}
			got := v[nl.Node("out")] > 0.9
			if got != fn(logic) {
				t.Fatalf("%s(%v) = %v (%.3f V), want %v", name, logic, got, v[nl.Node("out")], fn(logic))
			}
		}
	}
}

func TestRingOscillator(t *testing.T) {
	// A 5-stage inverter ring must oscillate; the period is 2·N·t_pd.
	// Classic transistor-level sanity check for the whole Newton stack.
	nl := circuit.New()
	nl.AddV("VDD", "vdd", "0", circuit.DC(1.8))
	const n = 5
	for i := 0; i < n; i++ {
		in := "n" + string(rune('0'+i))
		out := "n" + string(rune('0'+(i+1)%n))
		if err := device.INV.Instantiate(nl, "u"+in, []string{in}, out, device.BuildOpts{Tech: device.Tech180, Drive: 1}); err != nil {
			t.Fatal(err)
		}
		nl.AddC("C"+in, out, "0", circuit.V(5e-15))
	}
	// Kick the ring out of its metastable DC point.
	nl.AddI("Ikick", "0", "n0", circuit.Pulse{V1: 0, V2: 2e-4, Delay: 1e-11, Rise: 1e-12, Fall: 1e-12, Width: 3e-11})
	sim, err := NewSimulator(nl, Options{DT: 2e-12, TStop: 6e-9, Models: device.Tech180})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]string{"n0"})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := res.Waveform("n0")
	if err != nil {
		t.Fatal(err)
	}
	// Count rising 0.9 V crossings after startup.
	var crossings []float64
	for i := 1; i < len(wf.T); i++ {
		if wf.T[i] < 1e-9 {
			continue
		}
		if wf.V[i-1] < 0.9 && wf.V[i] >= 0.9 {
			crossings = append(crossings, wf.T[i])
		}
	}
	if len(crossings) < 3 {
		t.Fatalf("ring did not oscillate: %d rising crossings", len(crossings))
	}
	// Period stability: successive periods within 10%.
	p1 := crossings[1] - crossings[0]
	p2 := crossings[2] - crossings[1]
	if math.Abs(p1-p2) > 0.1*p1 {
		t.Fatalf("period unstable: %g vs %g", p1, p2)
	}
	// Plausible range for 5 stages of drive-1 inverters with 5 fF loads.
	if p1 < 50e-12 || p1 > 3e-9 {
		t.Fatalf("period %g s implausible", p1)
	}
}
