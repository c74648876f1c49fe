package circuit

import (
	"math"
	"testing"
)

func TestQuietTime(t *testing.T) {
	const tol = 1e-4 * 1.8
	tail, err := NewPWL(
		[]float64{0, 1e-9, 2e-9, 3e-9, 4e-9},
		// Every breakpoint after the first stays within tol of the final
		// value, so the waveform is quiet from the second one on.
		[]float64{0, 1.8, 1.8 - 0.5*tol, 1.8 + 0.9*tol, 1.8},
	)
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := NewPWL([]float64{-1e-9, 1e-9}, []float64{1.2, 1.2})
	edge, _ := NewPWL([]float64{0, 1e-9, 2e-9}, []float64{0, 0, 1.8})
	inf := math.Inf(1)
	for _, c := range []struct {
		name string
		w    Waveform
		want float64
	}{
		{"DC", DC(1.8), 0},
		{"SatRamp", SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}, 0.4e-9},
		{"SatRamp step", SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9}, 0.3e-9},
		{"one-shot Pulse", Pulse{V1: 0, V2: 1.8, Delay: 1e-9, Rise: 0.1e-9, Fall: 0.2e-9, Width: 0.5e-9}, 1.8e-9},
		{"PWL tail within tol", tail, 1e-9},
		{"PWL constant", flat, -1e-9},
		{"PWL ending on an edge", edge, 2e-9},
		{"periodic Pulse", Pulse{V1: 0, V2: 1.8, Rise: 0.1e-9, Fall: 0.1e-9, Width: 1e-9, Period: 3e-9}, inf},
		{"Sine", Sine{Offset: 0.9, Amp: 0.9, Freq: 1e9}, inf},
		{"caller's own type", rampFunc(func(t float64) float64 { return t }), inf},
	} {
		if got := quietTime(c.w, tol); math.Abs(got-c.want) > 1e-21 && got != c.want {
			t.Errorf("%s: quiet time %g, want %g", c.name, got, c.want)
		}
	}
	// A point of the tail just outside tol moves the quiet time past it.
	tail.V[3] = 1.8 + 1.1*tol
	if got := quietTime(tail, tol); got != 4e-9 {
		t.Errorf("PWL tail outside tol: quiet time %g, want 4e-9", got)
	}
}

// rampFunc is a waveform type quietTime does not know.
type rampFunc func(float64) float64

func (f rampFunc) At(t float64) float64 { return f(t) }

func TestSettleRule(t *testing.T) {
	const vdd = 1.8
	tol := SettleTol * vdd
	in := [][]Waveform{{SatRamp{V0: 0, V1: vdd, Start: 1e-9, Slew: 0.1e-9}}, {DC(vdd)}}
	var s Settle
	// Two ports fall from the rail; port 1 lags port 0.
	s.Reset(vdd, []float64{vdd, vdd}, in...)
	step := 0
	feed := func(v0, v1 float64) bool {
		step++
		return s.Done(float64(step)*0.1e-9, []float64{v0, v1})
	}
	// Port 0 on the low rail, port 1 not yet below 10%: no stop, however
	// long it waits.
	for i := 0; i < 3*SettleSteps; i++ {
		if feed(0, 0.5) {
			t.Fatalf("step %d: stopped before port 1 swung", step)
		}
	}
	// Both on the rail from here, the inputs quiet since 1.1 ns: the rule
	// must hold for SettleSteps steps, counted afresh after a step that
	// leaves the tolerance band.
	for i := 1; i < SettleSteps; i++ {
		if feed(0, tol/2) {
			t.Fatalf("stopped after %d settled steps, want %d", i, SettleSteps)
		}
	}
	if feed(0, 2*tol) {
		t.Fatal("stopped on a step outside the tolerance band")
	}
	for i := 1; i < SettleSteps; i++ {
		if feed(-tol/2, tol/2) {
			t.Fatalf("stopped after %d settled steps since the reset of the count, want %d", i, SettleSteps)
		}
	}
	if !feed(0, 0) {
		t.Fatalf("not stopped after %d settled steps", SettleSteps)
	}

	// Reset clears the swing record: a run whose ports sit on a rail
	// from t = 0 never stops, and neither does one whose input has not
	// quieted.
	s.Reset(vdd, []float64{0, 0}, in...)
	for i := 0; i < 3*SettleSteps; i++ {
		if s.Done(2e-9+float64(i)*1e-12, []float64{0, 0}) {
			t.Fatal("a port that never swung stopped the run")
		}
	}
	s.Reset(vdd, []float64{vdd}, []Waveform{Sine{Offset: 0.9, Amp: 0.9, Freq: 1e9}})
	for i := 0; i < 3*SettleSteps; i++ {
		if s.Done(float64(i)*1e-12, []float64{0}) {
			t.Fatal("a run with a never-quiet input stopped")
		}
	}
}

// TestSettleResetAllocationFree checks that re-arming a warm Settle for
// a run of the same port count allocates nothing.
func TestSettleResetAllocationFree(t *testing.T) {
	var s Settle
	v0 := []float64{1.8, 1.8}
	in := [][]Waveform{{SatRamp{V0: 0, V1: 1.8, Start: 1e-9, Slew: 0.1e-9}}}
	s.Reset(1.8, v0, in...)
	if n := testing.AllocsPerRun(10, func() {
		s.Reset(1.8, v0, in...)
		s.Done(1e-9, v0)
	}); n != 0 {
		t.Fatalf("Reset and Done allocate %v times, want 0", n)
	}
}
