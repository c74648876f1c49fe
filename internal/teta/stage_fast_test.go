package teta

import (
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
)

// TestFastPathPerStepAllocationFree enforces the fast path's allocation
// contract: on a warm scratch, a whole RunWith — macromodel evaluation,
// stabilization, convolver reconfiguration, DC start and the per-timestep
// SC loop — allocates nothing, at 200 steps and at 400.
func TestFastPathPerStepAllocationFree(t *testing.T) {
	const dt = 4e-12
	rs := RunSpec{
		W:      map[string]float64{interconnect.ParamW: 0.4},
		Inputs: [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}}},
	}
	for _, steps := range []int{200, 400} {
		cfg := Config{Tech: device.Tech180, DT: dt, TStop: float64(steps) * dt, Order: 4}
		st := variationalLineStage(t, cfg)
		if !st.BuildStats.VarMacro {
			t.Fatalf("variational macromodel unavailable: %s", st.BuildStats.VarMacroNote)
		}
		sc := st.NewScratch()
		// Warm the scratch once: the first evaluation pays the convolver's
		// recurrence-coefficient characterization, memoized for repeat poles.
		if _, err := st.RunWith(sc, rs); err != nil {
			t.Fatal(err)
		}
		var runErr error
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := st.RunWith(sc, rs); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if allocs != 0 {
			t.Fatalf("%d steps: RunWith on a warm scratch allocates %v times, want 0", steps, allocs)
		}
	}
}
