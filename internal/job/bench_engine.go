package job

// This file measures the optional -engine row of BENCH_mc.json: the
// same Example-2 sweep through an arbitrary registered backend, with
// crash-safe checkpoint journaling for hour-long spice-golden runs.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/experiments"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// example2Evaluator builds the engine row's per-sample evaluator; a
// variable so tests can substitute a hanging or failing backend.
var example2Evaluator = experiments.Example2Evaluator

// benchState is the journal payload of a checkpointed engine-row sweep:
// the wall time already spent on the completed prefix and its cost
// counters. Per-sample timings are additive, so a resumed measurement
// just keeps accumulating both.
type benchState struct {
	ElapsedNs int64           `json:"elapsed_ns"`
	Metrics   runner.Snapshot `json:"metrics"`
}

// benchEngine times the same sweep through an arbitrary registered
// backend via the experiments Example-2 evaluator (single worker),
// returning the row and the final metrics snapshot (resumed-sample and
// checkpoint self-repair counters included). Without a journal the full
// warm-up pass matches benchStage, so keep -samples small for slow
// backends like spice-golden. With -checkpoint the warm-up is skipped —
// the row exists to survive crashes of hour-long spice-golden sweeps,
// and a resume must not redo the full population as a warm-up — so the
// measurement is cold-start inclusive.
func benchEngine(ctx context.Context, o experiments.Ex2Options, wire float64, name string, specs []teta.RunSpec, deadline time.Duration, ck *checkpoint.Config) (benchRow, runner.Snapshot, error) {
	eval, err := example2Evaluator(o, wire, name)
	if err != nil {
		return benchRow{}, runner.Snapshot{}, err
	}

	var prior benchState
	var metrics *runner.Metrics
	run := func(ck *checkpoint.Config) (time.Duration, error) {
		metrics = &runner.Metrics{}
		t0 := time.Now()
		sw := &core.Sweep[struct{}]{
			Primary: core.Evaluator[struct{}]{
				Name: name,
				Eval: func(_ context.Context, i int, _ any) (struct{}, error) {
					_, err := eval(specs[i])
					return struct{}{}, err
				},
			},
			Fingerprint: checkpoint.Fingerprint{
				Kind:    "bench-engine",
				Seed:    o.Seed,
				N:       len(specs),
				Sampler: "lhs",
				Engine:  name,
				Policy:  "skip",
				Sources: fmt.Sprintf("ex2/wire=%gum/samples=%d", wire, o.Samples),
			},
			Save: func(_ int, m runner.Snapshot) any {
				return benchState{ElapsedNs: prior.ElapsedNs + time.Since(t0).Nanoseconds(), Metrics: m}
			},
			Restore: func(state json.RawMessage) (runner.Snapshot, error) {
				err := json.Unmarshal(state, &prior)
				return prior.Metrics, err
			},
		}
		// The sweep skips failing samples (instead of aborting the whole
		// benchmark) and records them in the row's fault counters.
		if _, err := sw.Start(core.RunConfig{Workers: 1, Metrics: metrics, OnFailure: core.Skip, SampleTimeout: deadline, Checkpoint: ck}); err != nil {
			return 0, err
		}
		if err := sw.Run(ctx, len(specs)); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	if ck == nil {
		if _, err := run(nil); err != nil { // warm-up
			return benchRow{}, runner.Snapshot{}, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	el, err := run(ck)
	if err != nil {
		return benchRow{}, runner.Snapshot{}, err
	}
	runtime.ReadMemStats(&m1)
	snap := metrics.Snapshot()
	n := float64(len(specs))
	// Wall time accumulates across the resume chain; allocations can only
	// be measured for the samples this process actually evaluated.
	total := time.Duration(prior.ElapsedNs) + el
	allocs := 0.0
	if evaluated := len(specs) - int(snap.Resumed); evaluated > 0 {
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(evaluated)
	}
	return benchRow{
		Engine:          name,
		Workers:         1,
		NsPerSample:     float64(total.Nanoseconds()) / n,
		AllocsPerSample: allocs,
		SamplesPerSec:   n / total.Seconds(),
		Skipped:         snap.Skipped,
		Degraded:        snap.Degraded,
		TimedOut:        snap.TimedOut,
		Failures:        snap.Failures,
	}, snap, nil
}
