package core

import (
	"fmt"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// RunConfig is the execution policy of a Sweep, embedded by every
// statistical driver's config (MCConfig, ISConfig, SkewConfig,
// ssta.Config): how samples are scheduled, which engine evaluates them,
// and how the run survives failures and crashes. The statistical
// question itself (sample count, sources, sampling plan) stays in the
// embedding config.
//
// Every knob here preserves the reproducibility contract: for a fixed
// Seed the results are bit-identical at any Workers and BatchSize
// setting.
type RunConfig struct {
	// Seed derives every random stream in the run.
	Seed int64
	// Workers selects evaluation parallelism: 0 = serial, -1 (or any
	// negative value) = GOMAXPROCS, positive = exactly that many workers.
	// Results are bit-identical at any worker count for a fixed Seed.
	Workers int
	// BatchSize is the number of samples a worker claims and evaluates
	// per dispatch; larger batches amortize channel traffic and
	// contention on the shared index counter. 0 selects an automatic
	// size from N and the worker count. Results are bit-identical at any
	// batch size.
	BatchSize int
	// Metrics, when non-nil, accumulates evaluation-cost counters
	// (samples, SC iterations, linear solves, stage evaluations,
	// per-class failures, worker busy/channel-wait time) across the run;
	// safe to share between concurrent analyses.
	Metrics *runner.Metrics
	// Progress, when non-nil, is called periodically with the number of
	// completed samples (from a single goroutine).
	Progress func(done, total int)
	// OnFailure selects how the run responds to per-sample evaluation
	// failures: FailFast (zero value) aborts with the lowest failing
	// index's error; Skip excludes failing samples from the aggregate
	// and reports them in the result's FailureReport; Degrade walks the
	// engine ladder (by default every ladder-eligible engine costlier
	// than the primary, ascending: fast → exact → spice) before
	// skipping. Skip-sets and results are bit-identical at any worker
	// count.
	OnFailure FailurePolicy
	// Engine names the stage-evaluation backend for the primary
	// per-sample evaluation ("" resolves to teta-fast). See
	// RegisterEngine and EngineNames for the available backends.
	Engine string
	// Ladder optionally overrides the Degrade retry ladder with an
	// ordered list of engine names; nil selects the default ladder (see
	// Path.EngineLadder).
	Ladder []string
	// Checkpoint, when non-nil, journals the run durably: a
	// prefix-consistent snapshot (streaming statistics, failure report,
	// cost counters, and any materialized per-sample rows) is written to
	// Checkpoint.Path on the Every/Interval cadence and once after the
	// sweep. With Checkpoint.Resume set, a matching snapshot on disk
	// restores the accumulators and the run re-evaluates only
	// [snapshot.Next, N); the combined result is bit-identical to an
	// uninterrupted run at any worker count. A snapshot whose
	// fingerprint (seed, N, sampler, engine/ladder, policy, source list)
	// differs from this config refuses to resume with
	// checkpoint.ErrMismatch.
	Checkpoint *checkpoint.Config
	// MacroCache, when non-nil, is the cross-run content-addressed
	// macromodel store (internal/modelcache): every stage the driver
	// characterizes — directly or through ssta block characterization —
	// loads its variational macromodel from the store when an earlier
	// process already extracted it, and stores it otherwise. Like
	// Metrics and Progress it is process wiring, not run identity: it is
	// excluded from checkpoint fingerprints and job-spec hashes, because
	// cached and uncached runs produce bit-identical results.
	MacroCache teta.MacroStore
	// SampleTimeout, when positive, bounds every engine invocation with
	// a watchdog deadline: an evaluation that has not returned after
	// this long is abandoned, classified as FailTimeout, and handled by
	// the OnFailure policy (Degrade retries each ladder rung with a
	// fresh deadline), so one pathological sample cannot wedge the
	// sweep.
	SampleTimeout time.Duration
}

// engineName resolves the Engine field ("" defaults to teta-fast).
func (c RunConfig) engineName() string {
	if c.Engine != "" {
		return c.Engine
	}
	return EngineTetaFast
}

// validate checks the execution-policy fields shared by every driver.
func (c RunConfig) validate() error {
	if err := c.Checkpoint.Validate(); err != nil {
		return err
	}
	if c.SampleTimeout < 0 {
		return fmt.Errorf("core: SampleTimeout must be >= 0, got %v", c.SampleTimeout)
	}
	return nil
}
