// Package lcsim is a pure-Go reproduction of Acar, Pileggi & Nassif,
// "A Linear-Centric Simulation Framework for Parametric Fluctuations"
// (DATE 2002): variational reduced-order interconnect models, the TETA
// Successive-Chords waveform engine with pole/residue stabilization, and
// statistical path-delay analysis (Monte-Carlo and Gradient Analysis).
//
// The root package carries the benchmark suite (bench_test.go) that
// regenerates every table and figure of the paper's evaluation; the
// implementation lives under internal/ (see DESIGN.md for the system
// inventory) and is exercised by the cmd/ report tools and the runnable
// examples/ programs. Performance is measured by the repo benchmark
// under perfbench/ (bash perfbench/run.sh).
//
// # Context-first API and the shared RunConfig
//
// Every long-running entry point is context-first — there is exactly one
// form of each driver, and it takes a context:
//
//	core.Path.MonteCarloCtx(ctx, cfg)
//	core.Path.MonteCarloCorrelatedCtx(ctx, cfg)
//	core.PathPair.MonteCarloSkewCtx(ctx, cfg)
//
// (The historical non-Ctx aliases, the boolean sampler toggles
// MCConfig.UseLHS/UseHalton, and the Parallel/Direct switches have been
// removed; use Sampler, Workers and Engine instead.)
//
// A canceled context aborts the run promptly and returns ctx.Err()
// wrapped with the sample index reached (errors.Is against
// context.Canceled/DeadlineExceeded works).
//
// Everything that describes how a statistical run executes — as opposed
// to what it computes — lives in one embedded struct, core.RunConfig,
// shared by MCConfig, ISConfig, SkewConfig and ssta.Config: Seed,
// Workers, BatchSize, Engine, Ladder, OnFailure, SampleTimeout,
// Checkpoint, Metrics, Progress. Field promotion keeps call sites flat
// (cfg.Seed, cfg.Workers), and a policy configured once can be reused
// across drivers verbatim.
//
// # One sample sweep
//
// Every statistical driver — path MC, correlated MC, importance-sampled
// yield (one call per adaptive round), skew, ssta.RunMC and cross-engine
// validation — spends its samples through core.Sweep. A driver supplies
// only what is its own: the primary core.Evaluator (a per-worker scratch
// constructor and Eval(ctx, i, scratch)) and its Degrade rungs, an
// ordered Deliver(i, v) plus optional per-worker shards, and, when it
// journals, its checkpoint Fingerprint and payload Save/Restore. It
// inherits everything else: RunConfig validation, the OnFailure policy,
// the SampleTimeout watchdog with cancellation and scratch retirement,
// skip accounting into the FailureReport and runner.Metrics, and the
// journal's resume, flush cadence, final flush and Checkpoint.Limit cut.
//
// Runs execute on the internal/runner worker pool: Workers = 0 means
// serial, negative means GOMAXPROCS, positive is an exact count.
// BatchSize groups that many samples per dispatch to cut channel
// round-trips on fast kernels (0 picks a sensible default). Both are
// pure throughput knobs: at a fixed seed the per-sample results, the
// aggregate statistics, the skip-set and the FailureReport are
// bit-identical at any (Workers, BatchSize) combination. Aggregation
// uses exact compensated accumulators (stat.ExactSum) sharded per
// worker and merged deterministically, so even the floating-point bits
// of mean and sigma are partition-invariant.
//
// # Per-sample failure taxonomy
//
// Statistical runs evaluate thousands of parameter samples; a handful can
// legitimately fail (an extreme corner diverges, a macromodel's DC
// correction hits a singular Gr(w)). Every per-sample failure is typed so
// callers can react by cause with errors.Is / errors.As:
//
//	teta.ErrNoConvergence       SC ran out of its iteration budget
//	teta.ErrSCDiverged          the SC transient diverged (wraps ErrNoConvergence)
//	teta.ErrDCNewtonFailed      no t=0 operating point (wraps ErrNoConvergence)
//	poleres.ErrSingularGr       Gr(w) singular — DC correction impossible
//	poleres.ErrAllPolesUnstable stabilization removed every pole
//	core.ErrWaveformNaN         output never completed its transition
//	core.ErrSampleTimeout       the per-sample watchdog deadline expired
//
// core.ClassifyFailure maps any of these (arbitrarily wrapped) to a
// core.FailureClass, and core.SampleError carries the sample index plus
// class through a run's error chain.
//
// RunConfig.OnFailure selects the run-level policy:
// FailFast (default) aborts with the lowest failing index's error; Skip
// excludes failing samples from the aggregate statistics and reports them
// in the result's FailureReport; Degrade retries each failure through the
// engine ladder (every ladder-eligible backend costlier than the primary,
// ascending — teta-fast → teta-exact → spice-golden by default) before
// skipping. Under every policy the skip-set, the FailureReport and the
// statistics are bit-identical at any worker count.
//
// RunConfig.SampleTimeout arms the per-sample watchdog: an evaluation
// that exceeds the deadline is abandoned and fails with
// core.ErrSampleTimeout (class FailTimeout), flowing through the same
// policies — Degrade retries the next ladder rung under a fresh
// deadline, Skip records the timeout and moves on, FailFast surfaces the
// typed error. Canceling the context abandons a hung evaluation at once.
// A single pathological sample can therefore never stall a statistical
// sweep.
//
// # Crash-safe checkpoint/resume
//
// Long statistical runs can journal their progress durably
// (internal/checkpoint): RunConfig.Checkpoint points at a snapshot file
// that is rewritten atomically
// (write-to-temp + fsync + rename, previous generation kept as .bak)
// every K samples or T wall-seconds, always at a prefix-consistent cut
// of the ordered delivery stream. A killed run restarted with
// Checkpoint.Resume re-evaluates only the remaining samples on the
// restored accumulators and finishes bit-identical to an uninterrupted
// run — at any worker count, which is deliberately not part of the
// snapshot's config fingerprint. A snapshot whose fingerprint (seed, N,
// sampler, engine/ladder, policy, source list) disagrees with the live
// run is refused with checkpoint.ErrMismatch; a corrupt snapshot
// (checkpoint.ErrCorruptCheckpoint, CRC-verified) falls back to the
// .bak generation. The lcsim path/skew/yield/sta subcommands expose
// -checkpoint, -checkpoint-every, -resume and -sample-timeout.
//
// # Crash-only job daemon (lcsimd)
//
// cmd/lcsimd (internal/jobd) serves the job layer as a daemon: a
// durable on-disk queue of job.Specs, each executed as a chain of
// checkpoint-journaled sample-range shards (checkpoint.Config.Limit +
// core.ErrPartial) on a bounded worker pool, with per-shard retry under
// capped exponential backoff, a typed transient/permanent/interrupted
// failure split over the taxonomy above (jobd.Classify), heartbeat
// watchdog cancellation of stalled attempts, graceful drain on
// SIGTERM, and full recovery from SIGKILL — on restart the daemon
// resumes every journal, and the merged result is bit-identical to a
// direct `lcsim run` of the same spec at any shard size. There is no
// "running" state on disk: completion derives from the files that
// exist, a corrupt scheduling record self-heals to "queued", and a
// journal with no readable generation is dropped so the job restarts
// from sample 0.
//
// internal/faultinj is the deterministic chaos layer behind the
// daemon's tests: a seeded, budgeted fault schedule (torn writes,
// ENOSPC, fsync/rename failures, read corruption, scripted engine
// failures and hangs) injected through the filesystem seam that
// internal/checkpoint, internal/modelcache and the jobd queue write
// through, and through a core engine wrapper that preserves engine
// names (so spec hashes and journal fingerprints stay valid under
// chaos). `lcsimd serve -fault ...` arms the same schedule in the real
// binary; the daemon-smoke leg of `make check` kills the daemon
// mid-shard under fault injection and requires bit-identical results
// after restart.
//
// # Engine registry
//
// Stage evaluation is pluggable behind the core.Engine interface. Four
// backends are registered, in ascending cost order:
//
//	teta-fast     characterize-once variational macromodels (default)
//	teta-exact    per-sample pole/residue extraction, same SC transient
//	teta-direct   exact per-sample re-reduction, same SC transient
//	              (diagnostic; not in ladders)
//	spice-golden  transistor-level Newton transient per sample (reference)
//
// The three teta engines share one Successive-Chords loop; they differ
// only in where each sample's pole/residue load comes from.
//
// Every statistical driver (MonteCarloCtx, MonteCarloCorrelatedCtx,
// GradientAnalysis, MonteCarloSkewCtx, WorstCase) takes an Engine name in
// its config and runs unmodified against any registered backend; "lcsim
// validate" cross-checks two or more engines on the same sample set.
//
// # Full-chip statistical STA
//
// internal/ssta lifts the path-level statistics to chip level: it
// partitions a tech-mapped iscas.Circuit into fan-out-free blocks,
// characterizes each distinct cell chain exactly once (content-keyed
// macromodel cache, fanned across the runner pool longest block first)
// and each distinct stage exactly once (one core.StageMemo per run,
// shared by every block), and propagates canonical (mean, sensitivity,
// residual) arrival forms through the block graph with Clark's
// statistical max at reconvergent fan-in.
// ssta.Run is the analytical driver; ssta.RunMC is the brute-force
// per-sample reference on the same graph, run through core.Sweep
// (policies, watchdog, checkpoint journal). "lcsim sta -ssta" is the
// CLI surface; the ssta-smoke leg of `make check` gates SSTA-vs-MC
// agreement on s27.
package lcsim
