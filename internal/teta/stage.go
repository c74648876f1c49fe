package teta

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/mor"
	"lcsim/internal/poleres"
)

// ErrNoConvergence reports Successive-Chords iteration failure.
var ErrNoConvergence = errors.New("teta: successive chords did not converge")

// Typed per-sample failure causes. Both wrap ErrNoConvergence, so legacy
// errors.Is(err, ErrNoConvergence) checks keep working; new code should
// match the specific cause (the core layer classifies them into its
// failure taxonomy for skip/degrade policies).
var (
	// ErrSCDiverged reports that the Successive-Chords iteration diverged
	// (the port-voltage update went NaN or past scDivergeLimit), as
	// opposed to merely failing to converge within the iteration budget.
	ErrSCDiverged = fmt.Errorf("%w: iteration diverged", ErrNoConvergence)
	// ErrDCNewtonFailed reports that the t=0 quasi-static DC Newton could
	// not find an operating point from any starting sequence.
	ErrDCNewtonFailed = fmt.Errorf("%w: DC Newton initialization failed", ErrNoConvergence)
)

// scTol is the SC convergence tolerance, V: an iteration has converged
// once its largest port-voltage update falls below it.
const scTol = 1e-6

// scDivergeLimit is the port-voltage update magnitude (volts) past which
// the SC iteration is declared divergent rather than merely slow. The
// stage's one SC loop (simulate) applies it on every evaluation path.
const scDivergeLimit = 1e6

// scDiverged reports whether an SC port-voltage update indicates
// divergence: a NaN (the iteration left the representable range) or a
// step beyond scDivergeLimit.
func scDiverged(delta float64) bool {
	return math.IsNaN(delta) || delta > scDivergeLimit
}

// Config controls stage construction and simulation.
type Config struct {
	Tech *device.ModelSet
	DT   float64
	// TStop caps the transient window: a run ends earlier, after the step
	// at which the settle rule (circuit.Settle) holds, and runs to TStop
	// only when its stage never settles.
	TStop float64

	Chord  ChordPolicy
	Order  int     // ROM internal order (default 4)
	MaxSC  int     // SC iteration limit per step (default 500)
	Delta  float64 // variational characterization step (default 1e-3)
	NoStab bool    // disable the stability filter (ablation only)
	// UseBetaStab selects the paper's eq. (22)–(23) β residue scaling for
	// the stability correction instead of the default DC-shift variant
	// (poleres.StabilizeShift). Exposed for the ablation benchmark.
	UseBetaStab bool
	// MacroCache, when non-nil, is the cross-run macromodel store:
	// BuildStage characterizes through it, so a stage whose variational
	// library was already characterized by any earlier process loads the
	// macromodel instead of re-running the extraction. Stages built
	// through the cache evaluate bit-identically to uncached ones.
	MacroCache MacroStore
}

func (c *Config) setDefaults() error {
	if c.Tech == nil {
		return fmt.Errorf("teta: Config.Tech is required")
	}
	if c.DT <= 0 || c.TStop <= 0 {
		return fmt.Errorf("teta: DT and TStop must be positive")
	}
	if c.Order <= 0 {
		c.Order = 4
	}
	if c.MaxSC <= 0 {
		c.MaxSC = 500
	}
	return nil
}

// Stage is one logic stage: nonlinear drivers coupled through a (possibly
// variational) multiport linear load. The expensive pieces — driver chord
// systems, the variational ROM library — are built once; each statistical
// sample then costs only a library evaluation, a pole/residue transform
// and a cheap SC transient.
type Stage struct {
	cfg     Config
	drivers []*Driver
	sys     *circuit.VarSystem
	varrom  *mor.VarROM
	varmac  *poleres.VarMacromodel // nil → per-sample extraction fallback
	gout    []float64

	// pool recycles evaluation scratch for the entry points called without
	// one (Run, RunExact, RunDirect, PrimeDC); callers that manage workers
	// explicitly thread a NewScratch through RunWith instead.
	pool sync.Pool

	// warm is the primed DC operating point (see PrimeDC). It is written
	// once before sampling starts and only read afterwards, keeping sample
	// evaluation a pure function of (stage, sample) at any worker count.
	warm *dcWarm

	// Setup diagnostics.
	BuildStats BuildStats
}

// dcWarm is a primed DC solution: the Newton warm start used for samples
// whose t=0 input voltages match the primed key exactly.
type dcWarm struct {
	vin0 [][]float64
	vp   []float64
	unk  [][]float64
}

// BuildStats reports one-time characterization work.
type BuildStats struct {
	Ports, LoadNodes, LoadElements int
	ROMOrder                       int
	// VarMacro reports whether the characterize-once variational
	// macromodel was built; when false, VarMacroNote says why samples fall
	// back to per-sample extraction.
	VarMacro     bool
	VarMacroNote string
}

// RunStats reports per-sample simulation work.
type RunStats struct {
	// Steps is the number of timesteps run: TStop/DT when the stage never
	// settled, fewer when the settle rule ended the run early.
	Steps        int
	SCIterations int
	// LinearSolves counts the prefactored triangular solves spent in the
	// timestepping SC loop (Norton extraction + internal recovery per
	// driver per iteration) — the cost proxy the parallel runtime's
	// metrics layer aggregates across samples.
	LinearSolves  int
	UnstablePoles int     // poles removed by the stability filter
	BetaMin       float64 // DC correction factors applied
	BetaMax       float64
}

// Result is one stage transient outcome.
type Result struct {
	T     []float64
	PortV [][]float64 // per port
	Stats RunStats
}

// PortWaveform returns the waveform of port p as a PWL.
func (r *Result) PortWaveform(p int) (*circuit.PWL, error) {
	if p < 0 || p >= len(r.PortV) {
		return nil, fmt.Errorf("teta: port %d out of range", p)
	}
	return circuit.NewPWL(r.T, r.PortV[p])
}

// MaxDiff returns the largest |r − ref| at port p over two runs of one
// stage, which share its time grid. A run the settle rule ended early
// holds its last value there, as its PortWaveform does.
func (r *Result) MaxDiff(ref *Result, p int) float64 {
	a, b := r.PortV[p], ref.PortV[p]
	d := 0.0
	for i := range max(len(a), len(b)) {
		d = max(d, math.Abs(a[min(i, len(a)-1)]-b[min(i, len(b)-1)]))
	}
	return d
}

// BuildStage characterizes a stage: load is the linear network with its
// ports marked (in port order); drivers attach to ports by index. Ports
// without a driver are observation probes (the paper's "probe line").
func BuildStage(load *circuit.Netlist, drivers []DriverSpec, cfg Config) (*Stage, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	st := &Stage{cfg: cfg}
	sys, err := circuit.AssembleVariational(load)
	if err != nil {
		return nil, fmt.Errorf("teta: load assembly: %w", err)
	}
	if sys.Np == 0 {
		return nil, fmt.Errorf("teta: load has no ports marked")
	}
	st.sys = sys
	st.gout = make([]float64, sys.Np)
	seen := make([]bool, sys.Np)
	for _, spec := range drivers {
		if spec.Port < 0 || spec.Port >= sys.Np {
			return nil, fmt.Errorf("teta: driver %s port %d out of range (%d ports)", spec.Name, spec.Port, sys.Np)
		}
		if seen[spec.Port] {
			return nil, fmt.Errorf("teta: port %d has two drivers", spec.Port)
		}
		seen[spec.Port] = true
		d, err := newDriver(spec, cfg.Tech, cfg.Chord, cfg.DT)
		if err != nil {
			return nil, err
		}
		st.drivers = append(st.drivers, d)
		st.gout[spec.Port] = d.GOut()
	}
	if err := sys.SetPortConductance(st.gout); err != nil {
		return nil, err
	}
	st.varrom, err = mor.BuildVariational(sys, mor.BuildOptions{Order: cfg.Order, Delta: cfg.Delta})
	if err != nil {
		return nil, fmt.Errorf("teta: variational ROM: %w", err)
	}
	stt := load.Stats()
	st.BuildStats = BuildStats{
		Ports: sys.Np, LoadNodes: sys.N, LoadElements: stt.LinearElements,
		ROMOrder: st.varrom.Q,
	}
	// Characterize the variational pole/residue macromodel once — through
	// the cross-run store when one is configured; a near-degenerate
	// nominal spectrum falls back to per-sample extraction.
	if vm, err := extractVarCached(st.varrom, cfg.MacroCache); err == nil {
		st.varmac = vm
		st.BuildStats.VarMacro = true
	} else {
		st.BuildStats.VarMacroNote = err.Error()
	}
	return st, nil
}

// VarROM exposes the characterized library (for the experiment harnesses).
func (st *Stage) VarROM() *mor.VarROM { return st.varrom }

// PortConductances returns the chord output conductances folded into the
// load.
func (st *Stage) PortConductances() []float64 {
	out := make([]float64, len(st.gout))
	copy(out, st.gout)
	return out
}

// RunSpec is one statistical sample plus input stimuli.
type RunSpec struct {
	W       map[string]float64   // wire-parameter sample (variational ROM evaluation)
	DL, DVT float64              // device-parameter deviations for this sample
	Inputs  [][]circuit.Waveform // Inputs[d][k]: waveform at input k of driver d
}

// Run simulates the stage for one sample (the paper's Table 1
// "Evaluation" steps 1–4) on pooled scratch and returns a caller-owned
// result. The sample's load comes from the characterize-once variational
// macromodel when it is available, and from a per-sample extraction (see
// RunExact) otherwise.
func (st *Stage) Run(rs RunSpec) (*Result, error) { return st.RunWith(nil, rs) }

// RunWith is Run with a caller-owned evaluation scratch (NewScratch),
// letting a worker loop evaluate many samples with an allocation-free
// timestep loop. The returned Result's waveform arrays are backed by the
// scratch and remain valid only until the next run with the same scratch
// — consume (or copy) the result before reusing the scratch. A nil
// scratch behaves like Run, whose results are always caller-owned.
func (st *Stage) RunWith(sc *Scratch, rs RunSpec) (*Result, error) {
	return st.run(sc, rs, st.macromodel)
}

// RunExact evaluates one sample through the per-sample extraction path —
// variational library evaluation followed by a full pole/residue
// extraction (dense LU + eigendecomposition) — regardless of whether the
// characterize-once macromodel is available, and runs the same
// Successive-Chords loop as Run on it. It is the accuracy reference for
// the fast path, the baseline of the characterization-speedup benchmark,
// and the degradation rung for samples whose fast-path evaluation fails
// (e.g. a singular Gr(w) in the macromodel's DC correction): the exact
// extraction does not share the macromodel's first-order truncation, so
// it can succeed where the fast path cannot. It draws scratch from the
// stage's pool and returns a caller-owned result.
func (st *Stage) RunExact(rs RunSpec) (*Result, error) { return st.run(nil, rs, st.extract) }

// RunDirect recharacterizes the ROM exactly at the sample (full
// re-reduction with exact element values) and simulates it like
// RunExact — the accuracy reference used by the Example-2 histogram
// comparison.
func (st *Stage) RunDirect(rs RunSpec) (*Result, error) { return st.run(nil, rs, st.rereduce) }

// run evaluates one sample: model forms its pole/residue load (possibly
// in sc's buffers) and simulate runs the transient against it. A nil sc
// borrows a scratch from the stage's pool; the result is detached from
// it before it returns to the pool, where another goroutine may reuse it.
func (st *Stage) run(sc *Scratch, rs RunSpec, model func(*Scratch, map[string]float64) (*poleres.Macromodel, error)) (*Result, error) {
	if err := st.checkInputs(rs); err != nil {
		return nil, err
	}
	pooled := sc == nil
	if pooled {
		sc = st.getScratch()
		defer st.pool.Put(sc)
	}
	pr, err := model(sc, rs.W)
	if err != nil {
		return nil, err
	}
	res, err := st.simulate(sc, pr, rs)
	if err != nil {
		return nil, err
	}
	if pooled {
		res = res.detach()
	}
	return res, nil
}

// macromodel evaluates the characterize-once variational macromodel at w
// into sc, or extracts per sample when the stage has none.
func (st *Stage) macromodel(sc *Scratch, w map[string]float64) (*poleres.Macromodel, error) {
	if st.varmac == nil {
		return st.extract(sc, w)
	}
	return st.varmac.EvalInto(sc.me, w)
}

// extract evaluates the variational library at w and extracts the
// pole/residue form of the resulting ROM.
func (st *Stage) extract(_ *Scratch, w map[string]float64) (*poleres.Macromodel, error) {
	return poleres.Extract(st.varrom.At(w))
}

// rereduce reduces the load afresh at its exact element values for w and
// extracts the pole/residue form.
func (st *Stage) rereduce(_ *Scratch, w map[string]float64) (*poleres.Macromodel, error) {
	g, err := st.sys.ExactG(w)
	if err != nil {
		return nil, err
	}
	rom, err := mor.Reduce(g, st.sys.ExactC(w), st.sys.Np, st.cfg.Order)
	if err != nil {
		return nil, err
	}
	return poleres.Extract(rom)
}

// detach deep-copies a scratch-backed result so it outlives the scratch
// that produced it.
func (r *Result) detach() *Result {
	out := &Result{
		T:     append([]float64(nil), r.T...),
		PortV: make([][]float64, len(r.PortV)),
		Stats: r.Stats,
	}
	for i, v := range r.PortV {
		out.PortV[i] = append([]float64(nil), v...)
	}
	return out
}

func (st *Stage) checkInputs(rs RunSpec) error {
	if len(rs.Inputs) != len(st.drivers) {
		return fmt.Errorf("teta: got %d input bundles for %d drivers", len(rs.Inputs), len(st.drivers))
	}
	for di, d := range st.drivers {
		if len(rs.Inputs[di]) != d.nIn {
			return fmt.Errorf("teta: driver %s needs %d inputs, got %d", d.Name, d.nIn, len(rs.Inputs[di]))
		}
	}
	return nil
}

func (st *Stage) getScratch() *Scratch {
	if v := st.pool.Get(); v != nil {
		return v.(*Scratch)
	}
	return st.NewScratch()
}

// PrimeDC solves the stage's DC operating point once, at nominal
// parameters, for the given input stimuli, and stores it as the Newton
// warm start for every subsequent sample whose t=0 input voltages match
// exactly. Call it after BuildStage and before sampling starts (it must
// not race with Run). Chains prime their first stage automatically; later
// stages see sample-dependent input waveforms and keep the standard
// multi-start Newton.
func (st *Stage) PrimeDC(inputs [][]circuit.Waveform) error {
	if err := st.checkInputs(RunSpec{Inputs: inputs}); err != nil {
		return err
	}
	sc := st.getScratch()
	defer st.pool.Put(sc)
	pr, err := st.macromodel(sc, nil)
	if err != nil {
		// The nominal Gr was factored during characterization, so this
		// cannot happen in practice; report it rather than crash.
		return fmt.Errorf("teta: PrimeDC nominal evaluation: %w", err)
	}
	st.stabilize(pr)
	for di, d := range st.drivers {
		d.resetState(sc.states[di], 0, 0)
		for k, wf := range inputs[di] {
			sc.vin[di][k] = wf.At(0)
		}
	}
	st.warm = nil // prime from the standard start sequence
	if err := st.dcInit(sc, pr); err != nil {
		return fmt.Errorf("teta: PrimeDC: %w", err)
	}
	st.warm = &dcWarm{
		vin0: cloneRows(sc.vin),
		vp:   append([]float64(nil), sc.vp...),
		unk:  cloneRows(sc.unk),
	}
	return nil
}

// Primed reports whether PrimeDC has stored a DC warm start in the stage.
func (st *Stage) Primed() bool { return st.warm != nil }

// cloneRows deep-copies a per-driver vector set.
func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}
