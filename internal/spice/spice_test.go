package spice

import (
	"errors"
	"math"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/mat"
)

// operatingPoint solves sim's DC point and returns the node voltages,
// indexed by circuit.NodeID.
func operatingPoint(sim *Simulator) ([]float64, error) {
	if err := sim.buildStatic(); err != nil {
		return nil, err
	}
	v, _, err := sim.dcOperatingPoint()
	if err != nil {
		return nil, err
	}
	return v[:sim.nNode], nil
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDCDivider(t *testing.T) {
	nl := circuit.New()
	nl.AddV("V1", "a", "0", circuit.DC(1))
	nl.AddR("R1", "a", "b", circuit.V(1000))
	nl.AddR("R2", "b", "0", circuit.V(1000))
	sim, err := NewSimulator(nl, Options{DT: 1e-9, TStop: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	v, err := operatingPoint(sim)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v[nl.Node("b")], 0.5, 1e-6) {
		t.Fatalf("divider = %v, want 0.5", v[nl.Node("b")])
	}
	if !almostEq(v[nl.Node("a")], 1.0, 1e-6) {
		t.Fatalf("source node = %v, want 1", v[nl.Node("a")])
	}
}

func TestRCStepResponse(t *testing.T) {
	// v(t) = 1 - exp(-t/RC), R = 1k, C = 1p -> tau = 1ns.
	nl := circuit.New()
	nl.AddV("V1", "in", "0", circuit.SatRamp{V0: 0, V1: 1, Start: 0, Slew: 1e-12})
	nl.AddR("R1", "in", "out", circuit.V(1000))
	nl.AddC("C1", "out", "0", circuit.V(1e-12))
	sim, err := NewSimulator(nl, Options{DT: 1e-11, TStop: 5e-9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	tau := 1e-9
	for i, tt := range res.T {
		if tt < 5e-11 {
			continue // skip the source ramp region
		}
		want := 1 - math.Exp(-tt/tau)
		if !almostEq(res.V["out"][i], want, 0.005) {
			t.Fatalf("RC response at t=%g: got %g want %g", tt, res.V["out"][i], want)
		}
	}
}

func TestRCEnergyConservationProperty(t *testing.T) {
	// A driven RC must never overshoot the source (passive network).
	nl := circuit.New()
	nl.AddV("V1", "in", "0", circuit.SatRamp{V0: 0, V1: 1, Start: 1e-10, Slew: 1e-9})
	prev := "in"
	for i := 0; i < 10; i++ {
		n := "n" + string(rune('0'+i))
		nl.AddR("R"+n, prev, n, circuit.V(100))
		nl.AddC("C"+n, n, "0", circuit.V(2e-13))
		prev = n
	}
	sim, err := NewSimulator(nl, Options{DT: 2e-11, TStop: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]string{prev})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.V[prev] {
		if v < -1e-6 || v > 1+1e-6 {
			t.Fatalf("passive RC output out of range at t=%g: %g", res.T[i], v)
		}
	}
	// Final value must approach 1.
	if got := res.V[prev][len(res.T)-1]; !almostEq(got, 1, 0.01) {
		t.Fatalf("final value = %g, want ~1", got)
	}
}

func buildInverter(drive float64) (*circuit.Netlist, error) {
	nl := circuit.New()
	nl.AddV("VDD", "vdd", "0", circuit.DC(device.Tech180.VDD))
	err := device.INV.Instantiate(nl, "u1", []string{"in"}, "out", device.BuildOpts{
		Tech: device.Tech180, Drive: drive,
	})
	return nl, err
}

func TestInverterDCTransfer(t *testing.T) {
	nl, err := buildInverter(1)
	if err != nil {
		t.Fatal(err)
	}
	nl.AddV("VIN", "in", "0", circuit.DC(0))
	sim, err := NewSimulator(nl, Options{DT: 1e-12, TStop: 1e-12, Models: device.Tech180})
	if err != nil {
		t.Fatal(err)
	}
	v, err := operatingPoint(sim)
	if err != nil {
		t.Fatal(err)
	}
	if got := v[nl.Node("out")]; !almostEq(got, 1.8, 0.01) {
		t.Fatalf("inverter out with in=0: %g, want ~1.8", got)
	}
}

func TestInverterDCTransferHighInput(t *testing.T) {
	nl, err := buildInverter(1)
	if err != nil {
		t.Fatal(err)
	}
	nl.AddV("VIN", "in", "0", circuit.DC(1.8))
	sim, err := NewSimulator(nl, Options{DT: 1e-12, TStop: 1e-12, Models: device.Tech180})
	if err != nil {
		t.Fatal(err)
	}
	v, err := operatingPoint(sim)
	if err != nil {
		t.Fatal(err)
	}
	if got := v[nl.Node("out")]; math.Abs(got) > 0.01 {
		t.Fatalf("inverter out with in=vdd: %g, want ~0", got)
	}
}

func TestInverterTransient(t *testing.T) {
	nl, err := buildInverter(2)
	if err != nil {
		t.Fatal(err)
	}
	nl.AddV("VIN", "in", "0", circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.2e-9, Slew: 0.1e-9})
	nl.AddC("CL", "out", "0", circuit.V(20e-15))
	sim, err := NewSimulator(nl, Options{DT: 2e-12, TStop: 2e-9, Models: device.Tech180})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]string{"out", "in"})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := res.Waveform("out")
	if err != nil {
		t.Fatal(err)
	}
	// Output starts high, ends low.
	if wf.V[0] < 1.7 {
		t.Fatalf("initial out = %g, want ~vdd", wf.V[0])
	}
	if final := wf.V[len(wf.V)-1]; final > 0.05 {
		t.Fatalf("final out = %g, want ~0", final)
	}
	// 50% fall must happen after the input starts moving.
	cross := wf.CrossTime(0.9, -1)
	if math.IsNaN(cross) || cross < 0.2e-9 {
		t.Fatalf("fall crossing at %g", cross)
	}
}

func TestMacromodelEquivalentRC(t *testing.T) {
	// A 1-port macromodel Gr=[g], Cr=[c] must behave exactly like a
	// parallel RC to ground.
	build := func(useMac bool) []float64 {
		nl := circuit.New()
		nl.AddV("V1", "in", "0", circuit.SatRamp{V0: 0, V1: 1, Start: 1e-10, Slew: 1e-10})
		nl.AddR("R1", "in", "out", circuit.V(1000))
		if !useMac {
			nl.AddR("RL", "out", "0", circuit.V(2000))
			nl.AddC("CL", "out", "0", circuit.V(1e-12))
		}
		sim, err := NewSimulator(nl, Options{DT: 1e-11, TStop: 5e-9})
		if err != nil {
			t.Fatal(err)
		}
		if useMac {
			gr := mat.NewDenseData(1, 1, []float64{1.0 / 2000})
			cr := mat.NewDenseData(1, 1, []float64{1e-12})
			if err := sim.AddMacromodel(&Macromodel{Gr: gr, Cr: cr, Ports: []circuit.NodeID{nl.Node("out")}}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run([]string{"out"})
		if err != nil {
			t.Fatal(err)
		}
		return res.V["out"]
	}
	direct := build(false)
	mac := build(true)
	for i := range direct {
		if !almostEq(direct[i], mac[i], 1e-9) {
			t.Fatalf("macromodel differs from RC at sample %d: %g vs %g", i, mac[i], direct[i])
		}
	}
}

func TestMacromodelInternalStates(t *testing.T) {
	// 2-state macromodel with 1 port: series R into internal node with C:
	// port - [1/R, -1/R; -1/R, 1/R] - internal cap. Equivalent to R + C.
	g := 1.0 / 500
	gr := mat.NewDenseData(2, 2, []float64{g, -g, -g, g + 1e-9})
	cr := mat.NewDenseData(2, 2, []float64{0, 0, 0, 2e-12})
	nl := circuit.New()
	nl.AddV("V1", "in", "0", circuit.SatRamp{V0: 0, V1: 1, Start: 1e-10, Slew: 1e-10})
	nl.AddR("R1", "in", "out", circuit.V(1000))
	sim, err := NewSimulator(nl, Options{DT: 1e-11, TStop: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddMacromodel(&Macromodel{Gr: gr, Cr: cr, Ports: []circuit.NodeID{nl.Node("out")}}); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: R1 + series R to internal cap.
	nl2 := circuit.New()
	nl2.AddV("V1", "in", "0", circuit.SatRamp{V0: 0, V1: 1, Start: 1e-10, Slew: 1e-10})
	nl2.AddR("R1", "in", "out", circuit.V(1000))
	nl2.AddR("R2", "out", "x", circuit.V(500))
	nl2.AddC("C2", "x", "0", circuit.V(2e-12))
	sim2, err := NewSimulator(nl2, Options{DT: 1e-11, TStop: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim2.Run([]string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.T {
		if !almostEq(res.V["out"][i], res2.V["out"][i], 1e-3) {
			t.Fatalf("2-state macromodel mismatch at %d: %g vs %g", i, res.V["out"][i], res2.V["out"][i])
		}
	}
}

func TestUnstableMacromodelDiverges(t *testing.T) {
	// Negative conductance stronger than the source resistance: positive
	// pole, Newton must detect divergence — the paper's §5.1 phenomenon.
	nl := circuit.New()
	nl.AddV("V1", "in", "0", circuit.DC(1))
	nl.AddR("R1", "in", "out", circuit.V(1000)) // 1e-3 S
	sim, err := NewSimulator(nl, Options{DT: 1e-11, TStop: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	gr := mat.NewDenseData(1, 1, []float64{-2e-3})
	cr := mat.NewDenseData(1, 1, []float64{1e-12})
	if err := sim.AddMacromodel(&Macromodel{Gr: gr, Cr: cr, Ports: []circuit.NodeID{nl.Node("out")}}); err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run([]string{"out"})
	if err == nil {
		t.Fatal("expected divergence with an unstable macromodel")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("expected ErrNoConvergence, got %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	nl, err := buildInverter(1)
	if err != nil {
		t.Fatal(err)
	}
	nl.AddV("VIN", "in", "0", circuit.SatRamp{V0: 0, V1: 1.8, Start: 1e-10, Slew: 1e-10})
	sim, err := NewSimulator(nl, Options{DT: 1e-11, TStop: 1e-9, Models: device.Tech180})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steps != 100 {
		t.Fatalf("steps = %d, want 100", res.Stats.Steps)
	}
	// Each nonlinear step needs at least 2 Newton iterations.
	if res.Stats.NewtonIterations < 2*res.Stats.Steps {
		t.Fatalf("Newton iterations = %d, implausibly few", res.Stats.NewtonIterations)
	}
	if res.Stats.LUFactorizations < res.Stats.NewtonIterations {
		t.Fatal("each Newton iteration must refactor (SPICE cost model)")
	}
}

func TestOptionValidation(t *testing.T) {
	nl := circuit.New()
	nl.AddR("R1", "a", "0", circuit.V(1))
	if _, err := NewSimulator(nl, Options{}); err == nil {
		t.Fatal("zero DT/TStop must error")
	}
	nlm := circuit.New()
	nlm.AddMOSFET(circuit.MOSFET{Name: "M1", Model: "NMOS"}, "d", "g", "0", "0")
	if _, err := NewSimulator(nlm, Options{DT: 1, TStop: 1}); err == nil {
		t.Fatal("MOSFETs without models must error")
	}
}

func TestVariationalSampleAffectsElements(t *testing.T) {
	nl := circuit.New()
	nl.AddV("V1", "a", "0", circuit.DC(1))
	nl.AddR("R1", "a", "b", circuit.VarV(1000, "p", 1000.0))
	nl.AddR("R2", "b", "0", circuit.V(1000))
	sim, err := NewSimulator(nl, Options{DT: 1e-9, TStop: 1e-9, W: map[string]float64{"p": 1}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := operatingPoint(sim)
	if err != nil {
		t.Fatal(err)
	}
	// R1 = 2000 at the sample -> divider = 1/3.
	if !almostEq(v[nl.Node("b")], 1.0/3, 1e-6) {
		t.Fatalf("sampled divider = %v, want 1/3", v[nl.Node("b")])
	}
}
