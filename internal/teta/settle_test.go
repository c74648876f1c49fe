package teta

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

// fullWindow wraps every input of rs in neverQuiet.
func fullWindow(rs RunSpec) RunSpec {
	ins := make([][]circuit.Waveform, len(rs.Inputs))
	for d, group := range rs.Inputs {
		for _, w := range group {
			ins[d] = append(ins[d], neverQuiet{w})
		}
	}
	rs.Inputs = ins
	return rs
}

// windowSteps is the step count of a run that never settles.
func windowSteps(cfg Config) int { return int(cfg.TStop/cfg.DT + 0.5) }

// TestSettledRunIsPrefixOfFullWindow checks, on every evaluation path,
// that a run the settle rule ends early is a bit-identical prefix of
// the same run forced to the full window, and that the full run's tail
// stays within SettleTol·VDD of where the stopped run ends.
func TestSettledRunIsPrefixOfFullWindow(t *testing.T) {
	cfg := Config{Tech: device.Tech180, DT: 4e-12, TStop: 1.6e-9, Order: 4}
	st := variationalLineStage(t, cfg)
	rs := RunSpec{
		W:      map[string]float64{interconnect.ParamW: 0.3},
		DVT:    0.01,
		Inputs: [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}}},
	}
	tol := circuit.SettleTol * cfg.Tech.VDD
	for name, run := range map[string]func(RunSpec) (*Result, error){
		"Run": st.Run, "RunExact": st.RunExact, "RunDirect": st.RunDirect,
	} {
		stopped, err := run(rs)
		if err != nil {
			t.Fatal(err)
		}
		full, err := run(fullWindow(rs))
		if err != nil {
			t.Fatal(err)
		}
		n := stopped.Stats.Steps
		if full.Stats.Steps != windowSteps(cfg) || n >= full.Stats.Steps || len(stopped.T) != n+1 {
			t.Fatalf("%s: stopped after %d steps (%d points), full run %d steps; want an early stop and a full window of %d",
				name, n, len(stopped.T), full.Stats.Steps, windowSteps(cfg))
		}
		if stopped.Stats.SCIterations >= full.Stats.SCIterations {
			t.Errorf("%s: stopped run spent %d SC iterations, full run %d", name, stopped.Stats.SCIterations, full.Stats.SCIterations)
		}
		prefix := &Result{T: full.T[:n+1], PortV: make([][]float64, len(full.PortV))}
		for p, v := range full.PortV {
			prefix.PortV[p] = v[:n+1]
		}
		prefix.Stats = stopped.Stats
		if !sameResult(stopped, prefix) {
			t.Errorf("%s: the stopped run is not a bit-identical prefix of the full run", name)
		}
		for p, v := range full.PortV {
			last := stopped.PortV[p][n]
			for i := n + 1; i < len(v); i++ {
				if math.Abs(v[i]-last) > tol {
					t.Fatalf("%s: port %d at t=%g is %g, more than %g from the stopped run's final %g",
						name, p, full.T[i], v[i], tol, last)
				}
			}
		}
	}
}

// TestSettleKeepsSlowFarEnd runs a long line whose far end starts to
// move only after the input has finished: the near end reaches its rail
// long before the far end does, and the run must go on until the far end
// has made its transition, keeping its 90% crossing.
func TestSettleKeepsSlowFarEnd(t *testing.T) {
	cfg := Config{Tech: device.Tech180, DT: 4e-12, TStop: 4e-9, Order: 4}
	load := circuit.New()
	far := interconnect.AddLine(load, interconnect.Wire180, "near", "w", 5000, 0.008, false)
	load.MarkPort("near")
	load.MarkPort(far)
	load.AddC("Crcv", far, "0", circuit.V(2e-15))
	st, err := BuildStage(load, []DriverSpec{{Name: "drv", Cell: device.INV, Drive: 4, Port: 0}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := circuit.SatRamp{V0: 1.8, V1: 0, Start: 0.05e-9, Slew: 0.02e-9}
	rs := RunSpec{Inputs: [][]circuit.Waveform{{in}}}
	stopped, err := st.Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	full, err := st.Run(fullWindow(rs))
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := stopped.PortWaveform(1)
	wf, _ := full.PortWaveform(1)
	if start := wf.CrossTime(0.01*1.8, +1); !(start > in.Start+in.Slew) {
		t.Fatalf("far end moves by 1%% at %g, before the input finishes at %g", start, in.Start+in.Slew)
	}
	if stopped.Stats.Steps >= full.Stats.Steps {
		t.Fatalf("the run did not stop early (%d of %d steps)", stopped.Stats.Steps, full.Stats.Steps)
	}
	got, want := ws.CrossTime(0.9*1.8, +1), wf.CrossTime(0.9*1.8, +1)
	if math.IsNaN(want) || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("far-end 90%% crossing %g, want the full run's %g", got, want)
	}
}

// TestSettleQuietVictimRunsFullWindow checks that a bus stage whose
// victim line is held quiet never stops early: the victim's ports make
// no full swing, so the run spans every step of the window.
func TestSettleQuietVictimRunsFullWindow(t *testing.T) {
	bus := interconnect.BuildBus(interconnect.Wire180, 2, 60, 1, false)
	nlb := bus.Netlist
	nlb.MarkPort(bus.In[0])  // victim near (driven, holding low)
	nlb.MarkPort(bus.In[1])  // aggressor near (switching)
	nlb.MarkPort(bus.Out[0]) // victim far (probe)
	nlb.MarkPort(bus.Out[1]) // aggressor far (probe)
	cfg := defaultCfg()
	st, err := BuildStage(nlb, []DriverSpec{
		{Name: "vict", Cell: device.INV, Drive: 1, Port: 0},
		{Name: "aggr", Cell: device.INV, Drive: 8, Port: 1},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{
		{circuit.DC(1.8)},
		{circuit.SatRamp{V0: 1.8, V1: 0, Start: 0.3e-9, Slew: 0.1e-9}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steps != windowSteps(cfg) {
		t.Fatalf("quiet-victim stage ran %d steps, want the full window of %d", res.Stats.Steps, windowSteps(cfg))
	}
	if final := res.PortV[3][len(res.T)-1]; math.Abs(final-1.8) > 1e-3 {
		t.Fatalf("aggressor far end ends at %g, want it settled at 1.8", final)
	}
}
