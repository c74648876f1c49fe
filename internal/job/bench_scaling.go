package job

// This file measures the worker-scaling section of BENCH_mc.json: the
// per-sample cost of one teta.Stage sweep at a given worker count.

import (
	"context"
	"runtime"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// benchStage times one MC-style sweep over the sample specs with the
// given worker count and dispatch batch size, reporting per-sample wall
// time, allocations and the worker-utilization split. engineName labels
// the row (run evaluates one sample on st through that backend, with the
// worker's scratch); deadline, when positive, bounds each sample
// evaluation.
func benchStage(ctx context.Context, st *teta.Stage, run func(sc *teta.Scratch, rs teta.RunSpec) (*teta.Result, error), specs []teta.RunSpec, workers, batch int, engineName string, deadline time.Duration) (benchRow, error) {
	// The sweep skips failing samples (instead of aborting the whole
	// benchmark) and records them in the row's fault counters, so a partly
	// sick configuration still produces a measurement — visibly flagged.
	// Metrics are reset per pass so the reported counters cover exactly the
	// measured sweep, not the warm-up.
	var metrics *runner.Metrics
	sweep := func() (time.Duration, error) {
		metrics = &runner.Metrics{}
		t0 := time.Now()
		sw := &core.Sweep[struct{}]{Primary: core.Evaluator[struct{}]{
			Name:       engineName,
			NewScratch: func() any { return st.NewScratch() },
			Eval: func(_ context.Context, i int, sc any) (struct{}, error) {
				_, err := run(sc.(*teta.Scratch), specs[i])
				return struct{}{}, err
			},
		}}
		if _, err := sw.Start(core.RunConfig{Workers: workers, BatchSize: batch, Metrics: metrics, OnFailure: core.Skip, SampleTimeout: deadline}); err != nil {
			return 0, err
		}
		if err := sw.Run(ctx, len(specs)); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	// Warm-up pass: DC warm start, convolver memo, scratch pools.
	if _, err := sweep(); err != nil {
		return benchRow{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	el, err := sweep()
	if err != nil {
		return benchRow{}, err
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(specs))
	snap := metrics.Snapshot()
	w := runner.ResolveWorkers(workers)
	capacity := float64(w) * float64(el.Nanoseconds())
	return benchRow{
		Engine:          engineName,
		Workers:         w,
		Batch:           batch,
		NsPerSample:     float64(el.Nanoseconds()) / n,
		AllocsPerSample: float64(m1.Mallocs-m0.Mallocs) / n,
		SamplesPerSec:   n / el.Seconds(),
		Utilization:     float64(snap.BusyNs) / capacity,
		ChanWaitFrac:    float64(snap.SendWaitNs) / capacity,
		Skipped:         snap.Skipped,
		Degraded:        snap.Degraded,
		TimedOut:        snap.TimedOut,
		Failures:        snap.Failures,
	}, nil
}
