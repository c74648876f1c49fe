package main

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"lcsim/internal/circuit"
	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/iscas"
	"lcsim/internal/poleres"
	"lcsim/internal/ssta"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// The Example-2 path: INV -> NAND2 -> INV with 80 RC elements (40 um)
// of variational wire between stages, characterized at the CLI settings.
var example2Cells = []string{"INV", "NAND2", "INV"}

const (
	example2Elems  = 80
	example2WireUm = 40
)

func example2Spec() core.ChainSpec {
	return core.ChainSpec{
		Cells:        example2Cells,
		Drive:        2,
		ElemsBetween: example2Elems,
		WireLengthUm: example2WireUm,
		Variational:  true,
		Tech:         device.Tech180,
		DT:           4e-12,
		TStop:        1.6e-9,
		Order:        4,
	}
}

// example2Sources are DL, VT and the five wire sources.
func example2Sources() []core.Source {
	return append(core.DeviceSources(device.Tech180, 0.33, 0.33), core.WireSources(0.33)...)
}

// example2Bench is the Example-2 path as a netlist, so block SSTA can
// analyse the same path the Monte-Carlo workloads sample.
const example2Bench = `
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NOT(a)
n2 = NAND(n1, b)
y = NOT(n2)
`

func loadExample2Circuit() (*iscas.Circuit, error) {
	c, err := iscas.ParseBench("example2", strings.NewReader(example2Bench))
	if err != nil {
		return nil, err
	}
	return c.TechMap()
}

// example2SSTAConfig is block SSTA on the Example-2 path: the path's
// wire (80 elements, 40 um) and all seven sources.
func example2SSTAConfig() ssta.Config {
	return ssta.Config{
		RunConfig: core.RunConfig{Workers: workers},
		Sources:   example2Sources(),
		Tech:      device.Tech180, Drive: 2, Elems: example2Elems,
		DT: 4e-12, TStop: 1.6e-9, Order: 4,
	}
}

// samplePlan generates the rows MonteCarloCtx evaluates for an LHS run
// of n samples with this seed: the joint Latin-hypercube plan pushed
// through each source's distribution and folded into RunSpecs.
func samplePlan(seed int64, n int, sources []core.Source) []teta.RunSpec {
	dists := make([]stat.Dist, len(sources))
	for i, s := range sources {
		dists[i] = s.Dist
		if dists[i] == nil {
			dists[i] = stat.Normal{Mean: 0, Sigma: s.Sigma}
		}
	}
	cube := stat.LatinHypercube(stat.NewRNG(seed), n, len(sources))
	rows := make([]teta.RunSpec, n)
	for i := range rows {
		row := make([]float64, len(dists))
		for j := range row {
			row[j] = dists[j].Quantile(cube[i][j])
		}
		rows[i] = core.BuildRunSpec(sources, row)
	}
	return rows
}

// engineError evaluates every row on teta-fast and teta-exact, split
// over the workload's threads, and returns the mean and the largest
// relative delay difference in percent.
func engineError(p *core.Path, rows []teta.RunSpec) (meanPct, maxPct float64, err error) {
	fast, err := p.Engine(core.EngineTetaFast)
	if err != nil {
		return 0, 0, err
	}
	exact, err := p.Engine(core.EngineTetaExact)
	if err != nil {
		return 0, 0, err
	}
	errs := make([]float64, len(rows))
	fails := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := fast.NewScratch()
			for i := w; i < len(rows); i += workers {
				a, err := fast.EvalPath(sc, rows[i])
				if err != nil {
					fails[w] = err
					return
				}
				b, err := exact.EvalPath(nil, rows[i])
				if err != nil {
					fails[w] = err
					return
				}
				errs[i] = 100 * math.Abs(a.Delay-b.Delay) / b.Delay
			}
		}(w)
	}
	wg.Wait()
	for _, e := range fails {
		if e != nil {
			return 0, 0, fmt.Errorf("engine accuracy subset: %w", e)
		}
	}
	return mean(errs), maxOf(errs), nil
}

// stageInputs builds the input bundle of a chain stage: the propagating
// waveform on pin 0 and the side inputs held at their non-controlling
// levels.
func stageInputs(cell string, vdd float64, in circuit.Waveform) ([][]circuit.Waveform, error) {
	side, _, ok := core.SignalInfo(cell)
	if !ok {
		return nil, fmt.Errorf("no signal routing for cell %s", cell)
	}
	ins := []circuit.Waveform{in}
	for _, lv := range side {
		ins = append(ins, circuit.DC(float64(lv)*vdd))
	}
	return [][]circuit.Waveform{ins}, nil
}

// stageCall is one replayed stage evaluation of a sample.
type stageCall struct {
	run   time.Duration // Stage.RunWith
	stats teta.RunStats
}

// pathReplay re-evaluates a chain stage by stage through the public
// teta and circuit API, mirroring the engine's propagation loop (ramp
// stimulus, RunWith, ramp measurement, time shift, compression), so each
// stage's RunWith can be timed on its own.
type pathReplay struct {
	p     *core.Path
	cells []string
	sc    []*teta.Scratch
}

func newPathReplay(p *core.Path, cells []string) *pathReplay {
	r := &pathReplay{p: p, cells: cells}
	for _, st := range p.Stages {
		r.sc = append(r.sc, st.TStage.NewScratch())
	}
	return r
}

// eval propagates the stimulus at sample rs and returns the path delay,
// the per-stage calls, and each stage's input waveform.
func (r *pathReplay) eval(rs teta.RunSpec) (float64, []stageCall, []circuit.Waveform, error) {
	p := r.p
	vdd := p.Tech.VDD
	var in circuit.Waveform = circuit.SatRamp{V0: 0, V1: vdd, Start: p.TStart - p.InputSlew/2, Slew: p.InputSlew}
	rising := true
	delay := 0.0
	calls := make([]stageCall, len(p.Stages))
	inputs := make([]circuit.Waveform, len(p.Stages))
	for i, st := range p.Stages {
		inputs[i] = in
		bundle, err := stageInputs(r.cells[i], vdd, in)
		if err != nil {
			return 0, nil, nil, err
		}
		srs := rs
		srs.Inputs = bundle
		t0 := time.Now()
		res, err := st.TStage.RunWith(r.sc[i], srs)
		calls[i].run = time.Since(t0)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("stage %d: %w", i, err)
		}
		calls[i].stats = res.Stats
		wf, err := res.PortWaveform(st.OutPort)
		if err != nil {
			return 0, nil, nil, err
		}
		dir := -1
		if rising != st.Invert {
			dir = 1
		}
		cross, slew := wf.MeasureSatRamp(0, vdd, dir)
		if math.IsNaN(cross) || math.IsNaN(slew) || slew <= 0 {
			return 0, nil, nil, fmt.Errorf("stage %d: output did not complete its transition", i)
		}
		delay += cross - p.TStart
		shift := p.TStart - cross
		shifted := make([]float64, len(wf.T))
		for k, t := range wf.T {
			shifted[k] = t + shift
		}
		in = (&circuit.PWL{T: shifted, V: wf.V}).Compress(1e-4 * vdd)
		rising = rising != st.Invert
	}
	return delay, calls, inputs, nil
}

// macroReplay replays one stage's pole/residue work on a separately
// extracted copy of its variational macromodel: the per-sample affine
// evaluation, stabilization, convolver reconfiguration and the
// recursive-convolution step.
type macroReplay struct {
	vm       *poleres.VarMacromodel
	me       *poleres.MacroEval
	cv       *poleres.Convolver
	hist, iN []float64
	dt       float64
}

// macroCall is one replayed sample of a stage's macromodel work.
type macroCall struct {
	eval, stabilize, reconfigure, convolve time.Duration
	unstable                               int
}

func newMacroReplay(st *teta.Stage, dt float64) (*macroReplay, time.Duration, error) {
	t0 := time.Now()
	vm, err := poleres.ExtractVar(st.VarROM())
	extract := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	np := len(st.PortConductances())
	r := &macroReplay{vm: vm, me: vm.NewEval(), cv: new(poleres.Convolver),
		hist: make([]float64, np), iN: make([]float64, np), dt: dt}
	// The convolution's cost does not depend on the Norton currents it is
	// fed, so any finite values stand in for the sample's.
	for i := range r.iN {
		r.iN[i] = 1e-4
	}
	return r, extract, nil
}

// sample replays the macromodel work of one sample whose transient
// takes steps timesteps.
func (r *macroReplay) sample(w map[string]float64, steps int) (macroCall, error) {
	var c macroCall
	t0 := time.Now()
	pr, err := r.vm.EvalInto(r.me, w)
	t1 := time.Now()
	if err != nil {
		return c, err
	}
	rep := pr.StabilizeShiftInPlace()
	t2 := time.Now()
	if err := r.cv.Reconfigure(pr, r.dt); err != nil {
		return c, err
	}
	t3 := time.Now()
	r.cv.InitDC(r.iN)
	for s := 0; s < steps; s++ {
		r.cv.HistoryInto(r.hist)
		r.cv.AdvanceInto(nil, r.iN)
	}
	t4 := time.Now()
	c.eval, c.stabilize, c.reconfigure, c.convolve = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	c.unstable = len(rep.Removed)
	return c, nil
}

// stageLayers accumulates the per-stage layer times of replayed stage
// evaluations: RunWith, the macromodel work inside it, and the rest of
// RunWith (DC start, device evaluation, solve) by subtraction.
type stageLayers struct {
	run, self, eval, stab, reconf timer
	convNs, steps                 []float64
	iters, stepTotal, unstable, n int
}

// add records one stage evaluation and the replay of its macromodel work.
func (s *stageLayers) add(c stageCall, m macroCall) {
	s.run.add(c.run)
	s.eval.add(m.eval)
	s.stab.add(m.stabilize)
	s.reconf.add(m.reconfigure)
	s.self.add(c.run - m.eval - m.stabilize - m.reconfigure - m.convolve)
	s.convNs = append(s.convNs, float64(m.convolve.Nanoseconds())/float64(c.stats.Steps))
	s.steps = append(s.steps, float64(c.stats.Steps))
	s.iters += c.stats.SCIterations
	s.stepTotal += c.stats.Steps
	s.unstable += m.unstable
	s.n++
}

// report sets the teta and poleres per-stage metrics.
func (s *stageLayers) report(v map[string]float64) {
	v["teta.run_us_per_stage"] = s.run.median() * 1e6
	v["teta.self_us_per_stage"] = s.self.median() * 1e6
	v["teta.steps_per_stage"] = median(s.steps)
	v["teta.sc_iters_per_step"] = float64(s.iters) / float64(s.stepTotal)
	v["poleres.eval_us"] = s.eval.median() * 1e6
	v["poleres.stabilize_us"] = s.stab.median() * 1e6
	v["poleres.reconfigure_us"] = s.reconf.median() * 1e6
	v["poleres.convolve_ns_per_step"] = median(s.convNs)
	v["poleres.unstable_poles_per_eval"] = float64(s.unstable) / float64(s.n)
}

// nominal replays the nominal macromodel evaluation and stabilization
// that Stage.PrimeDC performs before its DC solve.
func (r *macroReplay) nominal() (time.Duration, error) {
	t0 := time.Now()
	m, err := r.vm.At(nil)
	if err != nil {
		return 0, err
	}
	m.StabilizeShift()
	return time.Since(t0), nil
}

// dcStarts times the cold DC operating-point solve of every stage of p:
// Stage.PrimeDC on the stage's nominal input, minus the replayed nominal
// macromodel evaluation PrimeDC does first. It returns each stage's
// median over reps calls, in seconds. p must be a copy nothing else
// evaluates, since PrimeDC stores a warm start in the stage.
func dcStarts(p *core.Path, cells []string, inputs []circuit.Waveform, macros []*macroReplay, reps int) ([]float64, error) {
	var out []float64
	for i, st := range p.Stages {
		bundle, err := stageInputs(cells[i], p.Tech.VDD, inputs[i])
		if err != nil {
			return nil, err
		}
		var t timer
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			if err := st.TStage.PrimeDC(bundle); err != nil {
				return nil, fmt.Errorf("stage %d DC start: %w", i, err)
			}
			prime := time.Since(t0)
			nom, err := macros[i].nominal()
			if err != nil {
				return nil, err
			}
			t.add(prime - nom)
		}
		out = append(out, t.median())
	}
	return out, nil
}

// engineTimer times the engine calls the program makes while it is
// installed as the process's engine wrapper: every Engine.EvalPath (a
// Monte-Carlo sample) and every direct Engine.EvalStage (a GA stage
// simulation), under the run's own threads and load.
type engineTimer struct {
	mu     sync.Mutex
	paths  timer
	stages time.Duration
}

// install wraps every engine resolved from now on; restore removes the
// wrapper again.
func (t *engineTimer) install() (restore func()) {
	prev := core.SetEngineWrapper(func(e core.Engine) core.Engine { return &timedEngine{Engine: e, t: t} })
	return func() { core.SetEngineWrapper(prev) }
}

// timedEngine keeps the wrapped engine's name and cost, as the wrapper
// contract requires, and times the two evaluation entry points.
type timedEngine struct {
	core.Engine
	t *engineTimer
}

func (e *timedEngine) EvalPath(sc any, rs teta.RunSpec) (*core.PathEval, error) {
	t0 := time.Now()
	ev, err := e.Engine.EvalPath(sc, rs)
	d := time.Since(t0)
	e.t.mu.Lock()
	e.t.paths.add(d)
	e.t.mu.Unlock()
	return ev, err
}

func (e *timedEngine) EvalStage(sc any, i int, rs teta.RunSpec, in circuit.Waveform, rising bool) (core.StageDelayResult, *circuit.PWL, error) {
	t0 := time.Now()
	r, wf, err := e.Engine.EvalStage(sc, i, rs, in, rising)
	d := time.Since(t0)
	e.t.mu.Lock()
	e.t.stages += d
	e.t.mu.Unlock()
	return r, wf, err
}
