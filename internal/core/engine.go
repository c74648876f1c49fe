package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"lcsim/internal/circuit"
	"lcsim/internal/teta"
)

// Engine is a stage-evaluation backend: everything the statistical layer
// (MonteCarloCtx, GradientAnalysis, MonteCarloSkewCtx, WorstCase, the
// correlated sampler) needs to evaluate a Path at one statistical sample.
// The statistical drivers dispatch exclusively through this interface, so
// a new backend needs no edits to any of them — register it with
// RegisterEngine and select it by name.
//
// Registered backends:
//
//	teta-fast    — the characterize-once variational macromodel path
//	               (the framework's headline fast path; the default)
//	teta-exact   — per-sample exact pole/residue extraction from the
//	               variational library (the accuracy rung of the library)
//	teta-direct  — full per-sample re-reduction of the interconnect
//	               (the accuracy reference; excluded from degrade ladders)
//	spice-golden — per-sample transistor-level Newton transient via
//	               internal/spice (the paper's SPICE baseline; requires a
//	               BuildChain-style path that records stage recipes)
type Engine interface {
	// Name is the registry key the engine was registered under.
	Name() string
	// Cost ranks engines by per-sample expense (higher = slower). Degrade
	// ladders walk strictly increasing cost.
	Cost() int
	// NewScratch allocates per-worker reusable evaluation state; the
	// return may be nil for engines with no reusable state. A scratch
	// value must not be shared between concurrent evaluations.
	NewScratch() any
	// EvalStage runs stage i for an arbitrary input waveform at sample rs
	// and returns the measured output ramp abstraction plus the full
	// output waveform. rising reports the *input* edge direction; sc is a
	// value from NewScratch or nil.
	EvalStage(sc any, i int, rs teta.RunSpec, in circuit.Waveform, rising bool) (StageDelayResult, *circuit.PWL, error)
	// EvalPath propagates the path's saturated-ramp stimulus through
	// every stage at sample rs (§4.3.1's inner loop).
	EvalPath(sc any, rs teta.RunSpec) (*PathEval, error)
}

// Engine name constants for the built-in backends.
const (
	EngineTetaFast    = "teta-fast"
	EngineTetaExact   = "teta-exact"
	EngineTetaDirect  = "teta-direct"
	EngineSpiceGolden = "spice-golden"
)

// EngineFactory builds an engine bound to one path. A factory may reject
// paths it cannot serve (e.g. spice-golden needs BuildChain stage
// recipes); default degrade ladders silently drop such engines, explicit
// selections surface the error.
type EngineFactory func(p *Path) (Engine, error)

// engineEntry is one registry row.
type engineEntry struct {
	cost   int
	ladder bool // eligible for default degrade ladders
	build  EngineFactory
}

var engineRegistry = struct {
	sync.RWMutex
	m map[string]engineEntry
}{m: map[string]engineEntry{}}

// RegisterEngine adds (or replaces) a stage-evaluation backend under a
// name. cost ranks it for ladder ordering; ladder marks it eligible for
// default Degrade ladders (the accuracy-reference teta-direct opts out:
// it re-reduces the interconnect per sample, which is a different answer
// to a different question than "rescue this sample").
func RegisterEngine(name string, cost int, ladder bool, build EngineFactory) {
	if name == "" || build == nil {
		panic("core: RegisterEngine needs a name and a factory")
	}
	engineRegistry.Lock()
	defer engineRegistry.Unlock()
	engineRegistry.m[name] = engineEntry{cost: cost, ladder: ladder, build: build}
}

// EngineNames lists the registered engine names in ascending cost order
// (ties alphabetical).
func EngineNames() []string {
	engineRegistry.RLock()
	defer engineRegistry.RUnlock()
	names := make([]string, 0, len(engineRegistry.m))
	for n := range engineRegistry.m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ci, cj := engineRegistry.m[names[i]].cost, engineRegistry.m[names[j]].cost
		if ci != cj {
			return ci < cj
		}
		return names[i] < names[j]
	})
	return names
}

// engineWrapper is a process-global decoration hook applied to every
// engine resolved through (*Path).Engine (and therefore to every ladder
// rung): the seam the fault-injection layer uses to script engine
// failures and hangs without renaming the engine — names feed spec hashes
// and checkpoint fingerprints, so a chaos run must keep them intact to
// stay resumable against (and comparable to) a clean run.
var engineWrapper struct {
	sync.RWMutex
	fn func(Engine) Engine
}

// SetEngineWrapper installs fn as the process-global engine decoration
// hook (nil removes it) and returns the previous hook. A wrapper must
// preserve Name() and Cost(). Intended for chaos/fault-injection tests
// only; production paths leave it unset.
func SetEngineWrapper(fn func(Engine) Engine) (prev func(Engine) Engine) {
	engineWrapper.Lock()
	defer engineWrapper.Unlock()
	prev = engineWrapper.fn
	engineWrapper.fn = fn
	return prev
}

// ResolveEngine returns the engine name a selection stands for: "" is
// the default engine, teta-fast, and any other name stands for itself.
// Every driver, fingerprint and evaluator resolves the default here.
func ResolveEngine(name string) string {
	if name == "" {
		return EngineTetaFast
	}
	return name
}

// Engine resolves a registered engine by name for this path ("" selects
// the default, see ResolveEngine). Construction is cheap; callers
// resolve once per analysis, not per sample.
func (p *Path) Engine(name string) (Engine, error) {
	name = ResolveEngine(name)
	engineRegistry.RLock()
	e, ok := engineRegistry.m[name]
	engineRegistry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown engine %q (registered: %v)", name, EngineNames())
	}
	eng, err := e.build(p)
	if err != nil {
		return nil, fmt.Errorf("core: engine %s: %w", name, err)
	}
	engineWrapper.RLock()
	wrap := engineWrapper.fn
	engineWrapper.RUnlock()
	if wrap != nil {
		eng = wrap(eng)
	}
	return eng, nil
}

// EngineLadder resolves the ordered Degrade retry ladder for a primary
// engine. With explicit names every entry must resolve (unknown or
// unbuildable names are an error); with nil names the default ladder is
// every ladder-eligible registered engine strictly costlier than the
// primary, ascending — fast → exact → spice for the built-ins — with
// engines this path cannot build (e.g. spice-golden without stage
// recipes) silently dropped.
func (p *Path) EngineLadder(primary Engine, names []string) ([]Engine, error) {
	if names != nil {
		out := make([]Engine, 0, len(names))
		for _, n := range names {
			e, err := p.Engine(n)
			if err != nil {
				return nil, fmt.Errorf("core: degrade ladder: %w", err)
			}
			out = append(out, e)
		}
		return out, nil
	}
	var out []Engine
	for _, n := range EngineNames() {
		engineRegistry.RLock()
		entry := engineRegistry.m[n]
		engineRegistry.RUnlock()
		if !entry.ladder || entry.cost <= primary.Cost() || n == primary.Name() {
			continue
		}
		e, err := p.Engine(n)
		if err != nil {
			continue // not applicable to this path
		}
		out = append(out, e)
	}
	return out, nil
}

// stageWaveFn produces stage i's raw output waveform for one input
// waveform at one sample, plus backend cost counters (for TETA backends:
// successive-chord iterations and prefactored solves; for spice-golden:
// Newton iterations and LU factorizations).
type stageWaveFn func(sc any, i int, rs teta.RunSpec, in circuit.Waveform) (wf *circuit.PWL, iters, solves int, err error)

// pathEngine is the shared Engine implementation: backends supply a name,
// a cost, a scratch allocator and a stageWaveFn; measurement and the
// stage-by-stage propagation loop live here, once, so every backend gets
// identical ramp measurement, failure taxonomy and waveform-propagation
// semantics (the single-point dispatch that replaced the old
// evalMode/RunExact branching).
type pathEngine struct {
	p       *Path
	name    string
	cost    int
	scratch func() any
	wave    stageWaveFn
}

func (e *pathEngine) Name() string { return e.name }
func (e *pathEngine) Cost() int    { return e.cost }

func (e *pathEngine) NewScratch() any {
	if e.scratch == nil {
		return nil
	}
	return e.scratch()
}

// EvalStage runs one stage and measures the output ramp abstraction.
// Measurement failures (incomplete transition → NaN crossing) classify as
// ErrWaveformNaN regardless of backend.
func (e *pathEngine) EvalStage(sc any, i int, rs teta.RunSpec, in circuit.Waveform, rising bool) (StageDelayResult, *circuit.PWL, error) {
	st := e.p.Stages[i]
	wf, iters, solves, err := e.wave(sc, i, rs, in)
	if err != nil {
		return StageDelayResult{}, nil, fmt.Errorf("stage %s: %w", st.Name, err)
	}
	outRising := rising != st.Invert
	dir := -1
	if outRising {
		dir = +1
	}
	vdd := e.p.Tech.VDD
	cross, slew := wf.MeasureSatRamp(0, vdd, dir)
	if math.IsNaN(cross) || math.IsNaN(slew) || slew <= 0 {
		return StageDelayResult{}, nil, fmt.Errorf("stage %s: %w (cross=%g slew=%g); increase TStop", st.Name, ErrWaveformNaN, cross, slew)
	}
	return StageDelayResult{Cross50: cross, Slew: slew, SCIters: iters, Solves: solves}, wf, nil
}

// EvalPath is the stage-by-stage propagation loop shared by every
// backend: a saturated ramp at the primary input, the full measured
// waveform (time-shifted so its 50% crossing arrives at TStart,
// compressed with the adaptive-breakpoint rule) between stages.
func (e *pathEngine) EvalPath(sc any, rs teta.RunSpec) (*PathEval, error) {
	p := e.p
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("core: empty path")
	}
	rising := true
	vdd := p.Tech.VDD
	var in circuit.Waveform = circuit.SatRamp{
		V0: 0, V1: vdd, Start: p.TStart - p.InputSlew/2, Slew: p.InputSlew,
	}
	out := &PathEval{}
	for i := range p.Stages {
		r, wf, err := e.EvalStage(sc, i, rs, in, rising)
		if err != nil {
			return nil, err
		}
		d := r.Cross50 - p.TStart
		out.StageDelays = append(out.StageDelays, d)
		out.Delay += d
		out.SCIters += r.SCIters
		out.LinearSolves += r.Solves
		in = shiftPWL(wf, p.TStart-r.Cross50).Compress(1e-4 * vdd)
		rising = rising != p.Stages[i].Invert
		out.FinalSlew = r.Slew
	}
	return out, nil
}
