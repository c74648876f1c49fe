// Package core is the paper's primary contribution assembled into a
// user-facing framework: statistical path-delay analysis over chains of
// logic stages with variational interconnect, using the linear-centric
// TETA engine per stage. It implements both evaluation strategies of §4.3
// — full Monte-Carlo waveform propagation and Gradient Analysis (GA) with
// first-order sensitivity propagation through the stage recurrence — plus
// builders for the paper's benchmark path structure (cells separated by
// RC interconnect with a configurable number of linear elements).
//
// # Statistical drivers
//
// All drivers share one execution policy (RunConfig: seed, workers,
// failure policy, engine ladder, watchdog, checkpoint journal), the
// sampling drivers spend their samples through one Sweep, and all are
// bit-reproducible at any worker count:
//
//   - MonteCarloCtx: plain (or correlated/skew) Monte-Carlo sweeps with
//     streaming summaries.
//   - GradientAnalysis: first-order mean/σ and per-source sensitivities
//     from one nominal simulation plus one per source.
//   - WorstCase / Yield: verified delay corners and timing yield at a
//     budget from the GA and MC views.
//   - ImportanceYieldCtx: tail timing yield by importance sampling — a
//     GA-aimed mean-shifted defensive-mixture proposal with
//     likelihood-ratio-weighted accumulators (internal/stat), reaching
//     ppm-level failure probabilities at orders of magnitude fewer
//     engine evaluations than plain MC (measured ≥300× at a 4σ budget;
//     see BENCH_mc.json's yield section).
//
// Every driver is also addressable as a serialized job: internal/job
// wraps these entry points in a registry of named drivers behind a
// versioned, content-hashed job.Spec (the `lcsim run -spec` path), and
// RunConfig.MacroCache threads the cross-run macromodel store
// (internal/modelcache) through BuildChain's stage characterizations so
// repeated runs skip the per-stage eigendecompositions entirely.
package core

import (
	"fmt"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
	"lcsim/internal/teta"
)

// signalInfo describes how a propagating signal routes through a cell when
// driven at input pin 0: the logic values of the side inputs that make pin
// 0 controlling, and whether the cell inverts.
type signalInfo struct {
	side   []int // logic value (0/1) for inputs 1..NIn-1
	invert bool
}

var cellSignal = map[string]signalInfo{
	"INV":   {nil, true},
	"BUF":   {nil, false},
	"NAND2": {[]int{1}, true},
	"NAND3": {[]int{1, 1}, true},
	"NOR2":  {[]int{0}, true},
	"NOR3":  {[]int{0, 0}, true},
	"AOI21": {[]int{1, 0}, true},  // out = !(a·b + c): b=1, c=0
	"OAI21": {[]int{0, 1}, true},  // out = !((a+b)·c): b=0, c=1
	"XOR2":  {[]int{0}, false},    // b=0 -> out = a
	"MUX2":  {[]int{0, 0}, false}, // in1=x(held 0), sel=0 -> out = in0
	// Derived tech-mapping composites (device.AND2/OR2).
	"AND2": {[]int{1}, false},
	"OR2":  {[]int{0}, false},
}

// SignalInfo reports how a propagating signal routes through a named cell
// when driven at pin 0: the logic values of the remaining (side) inputs
// and whether the cell inverts. ok is false for unknown cells.
func SignalInfo(cell string) (side []int, invert bool, ok bool) {
	info, ok := cellSignal[cell]
	if !ok {
		return nil, false, false
	}
	side = append([]int(nil), info.side...)
	return side, info.invert, true
}

// Stage is one logic stage on a path: a characterized TETA stage whose
// driver 0 carries the propagating signal into input pin 0, and whose
// OutPort waveform feeds the next stage.
type Stage struct {
	Name    string
	Cell    *device.Cell
	TStage  *teta.Stage
	OutPort int
	Invert  bool
	side    []circuit.Waveform // waveforms for side inputs of driver 0
	// Recipe, when non-nil, records how the stage's load was assembled so
	// the spice-golden engine can re-expand the stage to transistor level
	// per sample. BuildChain fills it; hand-built stages without one
	// simply cannot construct the spice-golden engine.
	Recipe *StageRecipe
}

// StageRecipe is the transistor-level expansion recipe of one
// BuildChain-assembled stage: the parameters needed to rebuild the
// driving cell plus its RC load from scratch at any (W, DL, DVT) sample.
type StageRecipe struct {
	Drive        float64
	Elems        int     // linear elements of the inter-stage RC line
	WireLengthUm float64 // physical wire length
	Variational  bool    // wire values carry parameter sensitivities
	RcvCap       float64 // receiver (next stage input) capacitance, F
	DT, TStop    float64 // simulation window matching the TETA stage
}

// Path is an ordered chain of stages.
type Path struct {
	Tech   *device.ModelSet
	Stages []*Stage
	// InputSlew is the nominal slew of the saturated-ramp stimulus at the
	// path's primary input.
	InputSlew float64
	// TStart is the 50% arrival time of the stimulus within each stage's
	// local simulation window.
	TStart float64
}

// StageDelayResult reports one stage evaluation.
type StageDelayResult struct {
	Cross50 float64 // output 50% crossing (local time)
	Slew    float64 // output 0–100% slew estimate
	SCIters int
	Solves  int // prefactored linear solves spent in the SC loop
}

// stageRamp builds the saturated-ramp abstraction of a stage input whose
// 50% crossing arrives at TStart (used for the primary stimulus and by
// Gradient Analysis, which propagates the ramp abstraction instead of the
// full waveform — the paper's §4.3.2).
func (p *Path) stageRamp(slewIn float64, rising bool) circuit.SatRamp {
	vdd := p.Tech.VDD
	if rising {
		return circuit.SatRamp{V0: 0, V1: vdd, Start: p.TStart - slewIn/2, Slew: slewIn}
	}
	return circuit.SatRamp{V0: vdd, V1: 0, Start: p.TStart - slewIn/2, Slew: slewIn}
}

// shiftPWL translates a waveform in time by dt.
func shiftPWL(w *circuit.PWL, dt float64) *circuit.PWL {
	ts := make([]float64, len(w.T))
	for i, t := range w.T {
		ts[i] = t + dt
	}
	return &circuit.PWL{T: ts, V: w.V}
}

// PathEval is a full stage-by-stage path evaluation at one statistical
// sample (§4.3.1's inner loop).
type PathEval struct {
	Delay        float64 // total 50%-to-50% path delay
	StageDelays  []float64
	FinalSlew    float64
	SCIters      int
	LinearSolves int
}

// PathScratch is per-evaluator reusable state for a Path: one
// teta.Scratch per stage, carrying the convolver coefficient memo, the
// macromodel evaluation workspace and the solver buffers across
// samples. A PathScratch must not be shared between concurrent
// evaluations; give each Monte-Carlo worker its own via NewScratch.
type PathScratch struct {
	stages []*teta.Scratch
}

// NewScratch allocates evaluation scratch sized for every stage of the
// path.
func (p *Path) NewScratch() *PathScratch {
	ps := &PathScratch{stages: make([]*teta.Scratch, len(p.Stages))}
	for i, st := range p.Stages {
		ps.stages[i] = st.TStage.NewScratch()
	}
	return ps
}

// Evaluate propagates the stimulus through every stage at the given
// sample. When direct is true the interconnect models are exactly
// re-reduced per sample instead of using the variational library (the
// accuracy reference). It is a convenience wrapper over the teta-fast /
// teta-direct engines; engine-generic callers use Path.Engine and
// Engine.EvalPath directly.
func (p *Path) Evaluate(rs teta.RunSpec, direct bool) (*PathEval, error) {
	return p.EvaluateWith(nil, rs, direct)
}

// EvaluateExact propagates the stimulus through every stage using exact
// per-sample pole/residue extraction from the variational library (the
// teta-exact engine): the reduced system is evaluated at the sample's
// parameter values and a fresh extraction replaces the first-order
// macromodel update. It is the first rung of the default Degrade ladder —
// slower than the fast path, but immune to macromodel-truncation and
// DC-correction failures.
func (p *Path) EvaluateExact(rs teta.RunSpec) (*PathEval, error) {
	e, err := p.Engine(EngineTetaExact)
	if err != nil {
		return nil, err
	}
	return e.EvalPath(nil, rs)
}

// EvaluateWith is Evaluate with caller-owned scratch: repeated calls
// with the same PathScratch reuse each stage's convolver memo and
// solver workspaces instead of hitting the stages' shared pools. sc may
// be nil (plain Evaluate behavior).
func (p *Path) EvaluateWith(sc *PathScratch, rs teta.RunSpec, direct bool) (*PathEval, error) {
	name := EngineTetaFast
	if direct {
		name = EngineTetaDirect
	}
	e, err := p.Engine(name)
	if err != nil {
		return nil, err
	}
	if sc == nil {
		return e.EvalPath(nil, rs)
	}
	return e.EvalPath(sc, rs)
}

// ChainSpec describes a benchmark path: a sequence of library cells with
// identical interconnect between consecutive stages (the paper's Example 3
// workload).
type ChainSpec struct {
	Cells        []string // library cell names, signal through pin 0
	Drive        float64
	ElemsBetween int     // linear elements (R+C) between stages
	WireLengthUm float64 // physical length of each inter-stage wire
	Variational  bool    // attach wire-parameter sensitivities

	Tech      *device.ModelSet
	DT, TStop float64
	Order     int
	Chord     teta.ChordPolicy

	// MacroCache, when non-nil, is the cross-run macromodel store every
	// stage characterizes through (see teta.Config.MacroCache): chains
	// whose stages were characterized by an earlier process load their
	// macromodels instead of re-extracting, with bit-identical results.
	MacroCache teta.MacroStore
}

// BuildChain characterizes a chain path. Each stage's load is an RC line
// with the requested element count, terminated by the next cell's input
// capacitance.
func BuildChain(spec ChainSpec) (*Path, error) {
	if spec.Tech == nil {
		return nil, fmt.Errorf("core: ChainSpec.Tech is required")
	}
	if len(spec.Cells) == 0 {
		return nil, fmt.Errorf("core: empty cell chain")
	}
	if spec.Drive <= 0 {
		spec.Drive = 2
	}
	if spec.WireLengthUm <= 0 {
		spec.WireLengthUm = 100
	}
	if spec.ElemsBetween <= 0 {
		spec.ElemsBetween = 10
	}
	wire := wireTechFor(spec.Tech)
	p := &Path{
		Tech:      spec.Tech,
		InputSlew: 0.1e-9 * spec.Tech.VDD / 1.8,
		TStart:    0.3e-9,
	}
	for i, cellName := range spec.Cells {
		cell, err := device.LookupCell(cellName)
		if err != nil {
			return nil, err
		}
		info, ok := cellSignal[cellName]
		if !ok {
			return nil, fmt.Errorf("core: no signal routing info for cell %s", cellName)
		}
		load := circuit.New()
		far := interconnect.AddLineElements(load, wire, "near", "w", spec.ElemsBetween, spec.WireLengthUm, spec.Variational)
		load.MarkPort("near")
		load.MarkPort(far)
		// Receiver loading: the next cell's pin-0 input capacitance (the
		// final stage sees a nominal reference load instead).
		rcvCell := cell
		if i+1 < len(spec.Cells) {
			rcvCell, err = device.LookupCell(spec.Cells[i+1])
			if err != nil {
				return nil, err
			}
		}
		rcvCap := InputCap(rcvCell, spec.Drive, spec.Tech, 0)
		load.AddC("Crcv", far, "0", circuit.V(rcvCap))
		ts, err := teta.BuildStage(load, []teta.DriverSpec{{
			Name: fmt.Sprintf("s%d_%s", i, cellName), Cell: cell, Drive: spec.Drive, Port: 0,
		}}, teta.Config{
			Tech: spec.Tech, DT: spec.DT, TStop: spec.TStop,
			Order: spec.Order, Chord: spec.Chord,
			MacroCache: spec.MacroCache,
		})
		if err != nil {
			return nil, fmt.Errorf("core: stage %d (%s): %w", i, cellName, err)
		}
		side := make([]circuit.Waveform, len(info.side))
		for k, lv := range info.side {
			if lv == 0 {
				side[k] = circuit.DC(0)
			} else {
				side[k] = circuit.DC(spec.Tech.VDD)
			}
		}
		p.Stages = append(p.Stages, &Stage{
			Name:    fmt.Sprintf("s%d_%s", i, cellName),
			Cell:    cell,
			TStage:  ts,
			OutPort: 1,
			Invert:  info.invert,
			side:    side,
			Recipe: &StageRecipe{
				Drive: spec.Drive, Elems: spec.ElemsBetween,
				WireLengthUm: spec.WireLengthUm, Variational: spec.Variational,
				RcvCap: rcvCap, DT: spec.DT, TStop: spec.TStop,
			},
		})
	}
	// Warm-start the first stage's per-sample DC Newton from the nominal
	// operating point: every sample shares the primary stimulus, so the
	// prime's key (the exact t=0 input levels) hits on every evaluation.
	// Downstream stages receive simulated waveforms whose initial level is
	// not bit-exact across samples, so they keep the standard Newton start.
	st0 := p.Stages[0]
	ins := make([]circuit.Waveform, 1+len(st0.side))
	ins[0] = circuit.SatRamp{V0: 0, V1: p.Tech.VDD, Start: p.TStart - p.InputSlew/2, Slew: p.InputSlew}
	copy(ins[1:], st0.side)
	if err := st0.TStage.PrimeDC([][]circuit.Waveform{ins}); err != nil {
		return nil, fmt.Errorf("core: priming stage 0 DC: %w", err)
	}
	return p, nil
}

// wireTechFor picks the wire technology matching a device model set.
func wireTechFor(tech *device.ModelSet) interconnect.WireTech {
	if tech == device.Tech600 {
		return interconnect.Wire600
	}
	return interconnect.Wire180
}

// InputCap estimates the input capacitance at one pin of a cell instance:
// the gate capacitance of every transistor whose gate connects to that
// pin.
func InputCap(cell *device.Cell, drive float64, tech *device.ModelSet, pin int) float64 {
	nl := circuit.New()
	ins := make([]string, cell.NIn)
	for i := range ins {
		ins[i] = fmt.Sprintf("in%d", i)
	}
	if err := cell.Instantiate(nl, "x", ins, "out", device.BuildOpts{Tech: tech, Drive: drive}); err != nil {
		return 2e-15
	}
	pinID := nl.Node(ins[pin])
	total := 0.0
	for _, m := range nl.MOSFETs {
		if m.G != pinID {
			continue
		}
		mod, err := tech.Lookup(m.Model)
		if err != nil {
			continue
		}
		total += mod.GateCap(device.Geometry{W: m.W, L: m.L})
	}
	if total <= 0 {
		total = 2e-15
	}
	return total
}
