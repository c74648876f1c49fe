package core

import (
	"lcsim/internal/circuit"
	"lcsim/internal/teta"
)

// The three TETA backends wrap the per-stage adapters exported by
// internal/teta (RunWith / RunExact / RunDirect) behind the Engine
// interface. They are always constructible for any characterized path.
func init() {
	RegisterEngine(EngineTetaFast, 1, true, func(p *Path) (Engine, error) {
		return newTetaEngine(p, EngineTetaFast, 1,
			func(st *teta.Stage, sc *teta.Scratch, rs teta.RunSpec) (*teta.Result, error) {
				return st.RunWith(sc, rs)
			}), nil
	})
	RegisterEngine(EngineTetaExact, 2, true, func(p *Path) (Engine, error) {
		return newTetaEngine(p, EngineTetaExact, 2,
			func(st *teta.Stage, _ *teta.Scratch, rs teta.RunSpec) (*teta.Result, error) {
				return st.RunExact(rs)
			}), nil
	})
	RegisterEngine(EngineTetaDirect, 3, false, func(p *Path) (Engine, error) {
		return newTetaEngine(p, EngineTetaDirect, 3,
			func(st *teta.Stage, _ *teta.Scratch, rs teta.RunSpec) (*teta.Result, error) {
				return st.RunDirect(rs)
			}), nil
	})
}

// newTetaEngine builds a pathEngine whose stage waveform comes from one
// of the TETA evaluation strategies. All three run the stage's one SC
// loop. Only the fast strategy takes caller scratch: its NewScratch hands
// out a full PathScratch so a Monte-Carlo worker reuses each stage's
// macromodel buffer, convolver memo and solver workspaces across
// samples. The exact/direct strategies form a fresh model per sample and
// draw their loop scratch from each stage's pool.
func newTetaEngine(p *Path, name string, cost int, run func(*teta.Stage, *teta.Scratch, teta.RunSpec) (*teta.Result, error)) Engine {
	e := &pathEngine{p: p, name: name, cost: cost}
	if name == EngineTetaFast {
		e.scratch = func() any { return p.NewScratch() }
	}
	e.wave = func(sc any, i int, rs teta.RunSpec, in circuit.Waveform) (*circuit.PWL, int, int, error) {
		st := p.Stages[i]
		var stageSc *teta.Scratch
		if ps, ok := sc.(*PathScratch); ok && ps != nil {
			stageSc = ps.stages[i]
		}
		ins := make([]circuit.Waveform, 1+len(st.side))
		ins[0] = in
		copy(ins[1:], st.side)
		rs.Inputs = [][]circuit.Waveform{ins}
		res, err := run(st.TStage, stageSc, rs)
		if err != nil {
			return nil, 0, 0, err
		}
		wf, err := res.PortWaveform(st.OutPort)
		if err != nil {
			return nil, 0, 0, err
		}
		return wf, res.Stats.SCIterations, res.Stats.LinearSolves, nil
	}
	return e
}
