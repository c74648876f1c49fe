package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"lcsim/internal/circuit"
	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
	"lcsim/internal/runner"
	"lcsim/internal/spice"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// Ex2Options configures the Example 2 experiments (Figures 5 and 6):
// the 4-port stage of Figure 4 — three identical coupled minimum-width
// lines, victim in the middle, driven at the near ends, the victim's far
// end probed — swept over wirelength with 100-sample LHS over uniform
// W/T/S/H/ρ variations.
type Ex2Options struct {
	Tech      *device.ModelSet
	Wire      interconnect.WireTech
	Samples   int // LHS samples (paper: 100)
	Seed      int64
	Drive     float64 // driver strength
	DT, TStop float64
	Order     int
	// Workers selects evaluation parallelism per the core.RunConfig
	// convention: 0 = serial, negative = GOMAXPROCS, positive = exact.
	Workers int
	// BatchSize is the per-dispatch sample batch per the core.RunConfig
	// convention (0 = automatic).
	BatchSize int
	// OnFailure picks the per-sample failure policy for the validation
	// sweeps (FailFast or Skip; the Example-2 evaluators have no
	// degradation ladder). Zero value = FailFast.
	OnFailure core.FailurePolicy
	// SampleTimeout, when positive, bounds each sample evaluation of the
	// validation sweeps with a watchdog deadline, per the core.RunConfig
	// convention: a sample that has not returned in time fails with
	// core.ErrSampleTimeout and is handled by OnFailure.
	SampleTimeout time.Duration
	// MacroCache, when non-nil, is the cross-run macromodel store stage
	// construction characterizes through (see teta.Config.MacroCache).
	MacroCache teta.MacroStore
}

func (o *Ex2Options) setDefaults() {
	if o.Tech == nil {
		o.Tech = device.Tech180
	}
	if o.Wire.Name == "" {
		o.Wire = interconnect.Wire180
	}
	if o.Samples <= 0 {
		o.Samples = 100
	}
	if o.Drive <= 0 {
		o.Drive = 4
	}
	if o.DT <= 0 {
		o.DT = 4e-12
	}
	if o.TStop <= 0 {
		o.TStop = 2e-9
	}
	if o.Order <= 0 {
		o.Order = 6
	}
}

// ex2Stage builds the Figure-4 stage for one wirelength: ports are
// [victim-near, aggressor1-near, aggressor2-near, victim-far(probe)].
// Timing sweeps run the characterize-once fast path (Run/RunWith);
// accuracy comparisons evaluate the paper's library-evaluation path with
// per-sample extraction (RunExact).
func ex2Stage(o Ex2Options, lengthUm float64) (*teta.Stage, error) {
	bus := interconnect.BuildBus(o.Wire, 3, lengthUm, 1, true)
	nl := bus.Netlist
	nl.MarkPort(bus.In[1])  // victim (middle line) near end — port 0
	nl.MarkPort(bus.In[0])  // aggressor A near end — port 1
	nl.MarkPort(bus.In[2])  // aggressor B near end — port 2
	nl.MarkPort(bus.Out[1]) // victim far end (probe) — port 3
	// Receiver load at the probed far end.
	nl.AddC("Crcv", bus.Out[1], "0", circuit.V(4e-15))
	st, err := teta.BuildStage(nl, []teta.DriverSpec{
		{Name: "victim", Cell: device.INV, Drive: o.Drive, Port: 0},
		{Name: "aggrA", Cell: device.INV, Drive: o.Drive, Port: 1},
		{Name: "aggrB", Cell: device.INV, Drive: o.Drive, Port: 2},
	}, teta.Config{Tech: o.Tech, DT: o.DT, TStop: o.TStop, Order: o.Order, MacroCache: o.MacroCache})
	if err != nil {
		return nil, err
	}
	// Warm-start the per-sample DC Newton from the nominal operating point.
	if err := st.PrimeDC(ex2Inputs(o)); err != nil {
		return nil, err
	}
	return st, nil
}

// ex2Inputs are the Figure-4 stimuli: the victim switches (rising input →
// falling output), the aggressors switch the other way slightly later,
// maximizing coupling activity at the probe.
func ex2Inputs(o Ex2Options) [][]circuit.Waveform {
	vdd := o.Tech.VDD
	return [][]circuit.Waveform{
		{circuit.SatRamp{V0: 0, V1: vdd, Start: 0.25e-9, Slew: 0.1e-9}},
		{circuit.SatRamp{V0: vdd, V1: 0, Start: 0.30e-9, Slew: 0.1e-9}},
		{circuit.SatRamp{V0: vdd, V1: 0, Start: 0.30e-9, Slew: 0.1e-9}},
	}
}

// ex2SampleSpecs draws the LHS plan over the five wire parameters with
// uniform distributions spanning the full 3σ tolerance band (as in the
// paper's Example 2).
func ex2SampleSpecs(o Ex2Options) []teta.RunSpec {
	rng := stat.NewRNG(o.Seed)
	cube := stat.LatinHypercube(rng, o.Samples, len(interconnect.WireParams))
	dists := make([]stat.Dist, len(interconnect.WireParams))
	for i := range dists {
		dists[i] = stat.Uniform{Lo: -1, Hi: 1}
	}
	rows := stat.SamplePlan(cube, dists)
	specs := make([]teta.RunSpec, o.Samples)
	for i, row := range rows {
		w := map[string]float64{}
		for j, p := range interconnect.WireParams {
			w[p] = row[j]
		}
		specs[i] = teta.RunSpec{W: w, Inputs: ex2Inputs(o)}
	}
	return specs
}

// ex2Delay measures the victim far-end 50% falling delay relative to the
// victim input's 50% crossing.
func ex2Delay(o Ex2Options, res *teta.Result) (float64, error) {
	wf, err := res.PortWaveform(3)
	if err != nil {
		return 0, err
	}
	cross := wf.CrossTime(o.Tech.VDD/2, -1)
	if math.IsNaN(cross) {
		return 0, fmt.Errorf("experiments: probe did not cross 50%%")
	}
	return cross - 0.30e-9, nil
}

// ex2SpiceHarness builds the transistor-level replica of the Figure-4
// stage on the generic spice.StageHarness: three INV drivers onto a fresh
// 3-line coupled bus per sample (BuildBus's node names are deterministic,
// so a throwaway build supplies the driver and probe node names).
func ex2SpiceHarness(o Ex2Options, lengthUm float64) (*spice.StageHarness, error) {
	nodes := interconnect.BuildBus(o.Wire, 3, lengthUm, 1, true)
	buildLoad := func() (*circuit.Netlist, error) {
		bus := interconnect.BuildBus(o.Wire, 3, lengthUm, 1, true)
		bus.Netlist.AddC("Crcv", bus.Out[1], "0", circuit.V(4e-15))
		return bus.Netlist, nil
	}
	return spice.NewStageHarness(spice.StageSpec{
		Tech: o.Tech,
		Drivers: []spice.HarnessDriver{
			{Name: "v", Cell: device.INV, Drive: o.Drive, Out: nodes.In[1]},
			{Name: "a", Cell: device.INV, Drive: o.Drive, Out: nodes.In[0]},
			{Name: "b", Cell: device.INV, Drive: o.Drive, Out: nodes.In[2]},
		},
		BuildLoad: buildLoad,
		Probe:     nodes.Out[1],
		DT:        o.DT, TStop: o.TStop,
	})
}

// ex2SpiceDelay runs the same stage in the Newton baseline at one sample.
func ex2SpiceDelay(o Ex2Options, lengthUm float64, w map[string]float64) (float64, *spice.Stats, error) {
	h, err := ex2SpiceHarness(o, lengthUm)
	if err != nil {
		return 0, nil, err
	}
	wf, stats, err := h.Eval(w, 0, 0, ex2Inputs(o))
	if err != nil {
		return 0, nil, err
	}
	cross := wf.CrossTime(o.Tech.VDD/2, -1)
	if math.IsNaN(cross) {
		return 0, nil, fmt.Errorf("experiments: spice probe did not cross 50%%")
	}
	return cross - 0.30e-9, &stats, nil
}

// Figure5Row is one wirelength point of the CPU-time comparison.
type Figure5Row struct {
	LengthUm       float64
	LinearElements int
	FrameworkSec   float64 // per-sample framework simulation time
	SetupSec       float64 // one-time variational characterization time
	SPICESec       float64 // per-sample Newton baseline time
	Speedup        float64
}

// RunFigure5 sweeps wirelength and compares per-sample CPU time of the
// linear-centric framework against the Newton baseline. spiceSamples
// bounds how many (slow) baseline runs are timed per length.
func RunFigure5(o Ex2Options, lengths []float64, spiceSamples int) ([]Figure5Row, error) {
	o.setDefaults()
	if spiceSamples <= 0 {
		spiceSamples = 2
	}
	var rows []Figure5Row
	for _, l := range lengths {
		t0 := time.Now()
		st, err := ex2Stage(o, l)
		if err != nil {
			return nil, fmt.Errorf("length %g: %w", l, err)
		}
		setup := time.Since(t0).Seconds()
		specs := ex2SampleSpecs(o)
		t1 := time.Now()
		for _, rs := range specs {
			res, err := st.Run(rs)
			if err != nil {
				return nil, fmt.Errorf("length %g: %w", l, err)
			}
			if _, err := ex2Delay(o, res); err != nil {
				return nil, err
			}
		}
		fwPer := time.Since(t1).Seconds() / float64(len(specs))
		t2 := time.Now()
		nSp := spiceSamples
		if nSp > len(specs) {
			nSp = len(specs)
		}
		for i := 0; i < nSp; i++ {
			if _, _, err := ex2SpiceDelay(o, l, specs[i].W); err != nil {
				return nil, fmt.Errorf("length %g spice: %w", l, err)
			}
		}
		spPer := time.Since(t2).Seconds() / float64(nSp)
		rows = append(rows, Figure5Row{
			LengthUm:       l,
			LinearElements: st.BuildStats.LoadElements,
			FrameworkSec:   fwPer,
			SetupSec:       setup,
			SPICESec:       spPer,
			Speedup:        spPer / fwPer,
		})
	}
	return rows, nil
}

// Figure6Result compares the delay distribution from the variational
// framework against exact per-sample re-reduction (the accuracy
// comparison behind the paper's histogram pair).
type Figure6Result struct {
	LengthUm        float64
	Framework       stat.Summary
	Reference       stat.Summary
	FrameworkDelays []float64
	ReferenceDelays []float64
	KS              float64
	MeanErrPct      float64
	StdErrPct       float64
}

// RunFigure6 evaluates the 100-sample delay histograms at one wirelength
// with the variational library and with exact per-sample recharacterized
// models. Samples run on the parallel runtime per o.Workers; results are
// identical at any worker count.
func RunFigure6(o Ex2Options, lengthUm float64) (*Figure6Result, error) {
	o.setDefaults()
	// The framework stage runs the default characterize-once fast path, so
	// this comparison covers both approximation layers at once: the
	// variational library AND the macromodel linearization, against exact
	// per-sample re-reduction.
	st, err := ex2Stage(o, lengthUm)
	if err != nil {
		return nil, err
	}
	specs := ex2SampleSpecs(o)
	type pair struct{ fw, ref float64 }
	fw := make([]float64, 0, len(specs))
	ref := make([]float64, 0, len(specs))
	err = runner.Map(context.Background(), len(specs),
		runner.Options{Workers: o.Workers, BatchSize: o.BatchSize},
		func(_ context.Context, i int) (pair, error) {
			rs := specs[i]
			r1, err := st.Run(rs)
			if err != nil {
				return pair{}, err
			}
			d1, err := ex2Delay(o, r1)
			if err != nil {
				return pair{}, err
			}
			r2, err := st.RunDirect(rs)
			if err != nil {
				return pair{}, err
			}
			d2, err := ex2Delay(o, r2)
			if err != nil {
				return pair{}, err
			}
			return pair{d1, d2}, nil
		},
		func(_ int, p pair) {
			fw = append(fw, p.fw)
			ref = append(ref, p.ref)
		})
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{
		LengthUm:        lengthUm,
		Framework:       stat.Summarize(fw),
		Reference:       stat.Summarize(ref),
		FrameworkDelays: fw,
		ReferenceDelays: ref,
		KS:              stat.KSDistance(fw, ref),
	}
	res.MeanErrPct = 100 * abs(res.Framework.Mean-res.Reference.Mean) / res.Reference.Mean
	res.StdErrPct = 100 * abs(res.Framework.Std-res.Reference.Std) / res.Reference.Std
	return res, nil
}

// RenderFigure5 prints the CPU-time table behind Figure 5.
func RenderFigure5(rows []Figure5Row) string {
	var b strings.Builder
	b.WriteString("Figure 5 — CPU time per sample vs wirelength (Example 2)\n")
	fmt.Fprintf(&b, "%-10s %-10s %-10s %-14s %-14s %-10s\n", "len(um)", "elements", "setup(s)", "framework(s)", "spice(s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10.0f %-10d %-10.3g %-14.4g %-14.4g %-10.1f\n",
			r.LengthUm, r.LinearElements, r.SetupSec, r.FrameworkSec, r.SPICESec, r.Speedup)
	}
	return b.String()
}

// RenderFigure6 prints the histogram pair and statistics of Figure 6.
func RenderFigure6(r *Figure6Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — delay histograms at %g um (Example 2)\n", r.LengthUm)
	fmt.Fprintf(&b, "framework: mean=%.2f ps std=%.2f ps\n", r.Framework.Mean*1e12, r.Framework.Std*1e12)
	fmt.Fprintf(&b, "reference: mean=%.2f ps std=%.2f ps\n", r.Reference.Mean*1e12, r.Reference.Std*1e12)
	fmt.Fprintf(&b, "mean err %.3f%%  std err %.3f%%  KS %.3f\n\n", r.MeanErrPct, r.StdErrPct, r.KS)
	ps := func(v float64) string { return fmt.Sprintf("%8.1f ps", v*1e12) }
	b.WriteString("framework delays:\n")
	b.WriteString(stat.NewHistogram(r.FrameworkDelays, 12).Render(40, ps))
	b.WriteString("reference delays:\n")
	b.WriteString(stat.NewHistogram(r.ReferenceDelays, 12).Render(40, ps))
	return b.String()
}
