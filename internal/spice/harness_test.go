package spice

import (
	"math"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
)

// neverQuiet hides its waveform's type from the settle rule, which
// then cannot tell when it quiets: a run driven by it never settles and
// runs its full window.
type neverQuiet struct{ circuit.Waveform }

// TestStageHarnessSettledRunIsPrefix checks that a harness run the
// settle rule ends early is a bit-identical prefix of the same run
// forced to the full window, and that the full run's probe tail stays
// within SettleTol·VDD of the rail the stopped run ends on. (The
// trapezoidal rule rings about the rail from step to step, with
// alternating sign, so the tail is held to the rail rather than to the
// stopped run's last point, as the TETA test does.)
func TestStageHarnessSettledRunIsPrefix(t *testing.T) {
	dt, tstop := 4e-12, 1.6e-9
	line := func(nl *circuit.Netlist) string {
		return interconnect.AddLine(nl, interconnect.Wire180, "near", "w", 40, 0.25, true)
	}
	h, err := NewStageHarness(StageSpec{
		Tech:    device.Tech180,
		Drivers: []HarnessDriver{{Cell: device.INV, Drive: 4, Out: "near"}},
		BuildLoad: func() (*circuit.Netlist, error) {
			nl := circuit.New()
			nl.AddC("Crcv", line(nl), "0", circuit.V(2e-15))
			return nl, nil
		},
		Probe: line(circuit.New()),
		DT:    dt, TStop: tstop,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := map[string]float64{interconnect.ParamW: 0.3}
	in := circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}
	stopped, ss, err := h.Eval(w, 0, 0.01, [][]circuit.Waveform{{in}})
	if err != nil {
		t.Fatal(err)
	}
	full, sf, err := h.Eval(w, 0, 0.01, [][]circuit.Waveform{{neverQuiet{in}}})
	if err != nil {
		t.Fatal(err)
	}
	n := ss.Steps
	if window := int(tstop/dt + 0.5); sf.Steps != window || n >= window || len(stopped.T) != n+1 {
		t.Fatalf("stopped after %d steps (%d points), full run %d steps; want an early stop and a full window of %d",
			n, len(stopped.T), sf.Steps, window)
	}
	if ss.NewtonIterations >= sf.NewtonIterations {
		t.Errorf("stopped run spent %d Newton iterations, full run %d", ss.NewtonIterations, sf.NewtonIterations)
	}
	for i := 0; i <= n; i++ {
		if math.Float64bits(stopped.T[i]) != math.Float64bits(full.T[i]) ||
			math.Float64bits(stopped.V[i]) != math.Float64bits(full.V[i]) {
			t.Fatalf("point %d: stopped (%g, %g), full (%g, %g): not a bit-identical prefix",
				i, stopped.T[i], stopped.V[i], full.T[i], full.V[i])
		}
	}
	vdd := device.Tech180.VDD
	tol := circuit.SettleTol * vdd
	rail := math.Round(stopped.V[n]/vdd) * vdd
	for i := n + 1; i < len(full.V); i++ {
		if math.Abs(full.V[i]-rail) > tol {
			t.Fatalf("probe at t=%g is %g, more than %g from the rail %g the stopped run ends on", full.T[i], full.V[i], tol, rail)
		}
	}
}

func TestSettleNodesNeedFixedStepAndModels(t *testing.T) {
	for _, o := range []Options{
		{DT: 1e-12, TStop: 1e-9, Models: device.Tech180, Adaptive: true, SettleNodes: []string{"out"}},
		{DT: 1e-12, TStop: 1e-9, SettleNodes: []string{"out"}},
	} {
		if _, err := NewSimulator(circuit.New(), o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}
