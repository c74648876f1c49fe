package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"lcsim/internal/checkpoint"
	"lcsim/internal/runner"
)

// Evaluator is one backend's per-sample evaluation inside a Sweep: the
// primary evaluation, or one rung of the Degrade ladder.
type Evaluator[T any] struct {
	// Name labels the backend in timeout and degrade-cause messages (an
	// engine-registry name).
	Name string
	// NewScratch builds evaluation scratch that one goroutine owns at a
	// time; nil means Eval needs none and receives nil.
	NewScratch func() any
	// Eval evaluates sample i with sc. It must be a pure function of i:
	// the scratch is a cache, never a memory, so results are
	// bit-identical at any worker count.
	Eval func(ctx context.Context, i int, sc any) (T, error)
}

// newScratch draws a fresh scratch for e (nil when e needs none).
func (e *Evaluator[T]) newScratch() any {
	if e.NewScratch == nil {
		return nil
	}
	return e.NewScratch()
}

// Sweep is the one sample loop behind every statistical driver (path
// MC, correlated MC, IS yield, skew, ssta.RunMC, cross-engine
// validation). A driver supplies only what is its own:
// the primary Evaluator and its Degrade rungs, the ordered Deliver of
// evaluated values into its accumulators, optional per-worker shards,
// and — when it journals — its checkpoint Fingerprint and payload
// Save/Restore. The sweep owns the per-sample policy, identically for
// every driver:
//
//   - RunConfig validation;
//   - the OnFailure switch: FailFast fails the run with a typed
//     SampleError, Skip excludes the sample, Degrade walks the rungs in
//     order, each under a fresh watchdog deadline, before skipping;
//   - the watchdog: SampleTimeout bounds every evaluation, ctx
//     cancellation abandons a hung one, and an abandoned evaluation's
//     scratch is retired with it;
//   - skip accounting into Failures and the per-class Metrics counters;
//   - the checkpoint journal: resume, flush cadence and the final
//     flush, and the Checkpoint.Limit cut that ends a shard with
//     ErrPartial.
//
// Recovery is a pure function of (index, cause), and delivery is in
// strict index order, so skip-sets, reports and everything Deliver
// accumulates are bit-identical at any worker count and across
// kill/resume.
type Sweep[T any] struct {
	// Primary evaluates every sample first.
	Primary Evaluator[T]
	// Ladder holds the Degrade rungs, tried in order on a failed sample.
	Ladder []Evaluator[T]
	// Deliver folds sample i's value into the driver's accumulators. It
	// runs on the single ordered-delivery goroutine, in strict index
	// order (nil = nothing to fold).
	Deliver func(i int, v T)
	// NewShard, when non-nil, is called once per worker; the returned
	// function receives every value that worker evaluates, before
	// ordered delivery. Order-independent accumulators (exact moments)
	// shard there, and the driver merges the shards after Run.
	NewShard func() func(v T)
	// Failures receives the skipped samples and the degrade count (nil =
	// an internal report the driver does not read).
	Failures *FailureReport

	// Fingerprint pins the journal to this run configuration.
	Fingerprint checkpoint.Fingerprint
	// Save renders the journal payload at the prefix cut next; m is the
	// cost-counter snapshot the payload carries.
	Save func(next int, m runner.Snapshot) any
	// Restore loads a journal payload back into the driver's
	// accumulators (Failures included) and returns its cost counters.
	Restore func(state json.RawMessage) (runner.Snapshot, error)

	cfg      RunConfig
	next     int
	pools    []*sync.Pool // one scratch pool per Ladder rung
	flushErr error
}

// sweepOut carries one evaluated sample through the runner, flagged
// when a Ladder rung recovered it.
type sweepOut[T any] struct {
	v        T
	degraded bool
}

// sweepWorker is one worker's state: the primary evaluation's scratch
// (replaced when the watchdog abandons it) and the worker's shard.
type sweepWorker[T any] struct {
	sc    any
	shard func(v T)
}

// Start validates cfg and, with cfg.Checkpoint.Resume set, restores a
// matching journal's prefix. It returns the prefix cut the sweep
// continues from (0 when there is nothing to resume). A journal from a
// different run configuration refuses with checkpoint.ErrMismatch.
func (s *Sweep[T]) Start(cfg RunConfig) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	s.cfg = cfg
	if s.Failures == nil {
		s.Failures = new(FailureReport)
	}
	s.Failures.Policy = cfg.OnFailure
	s.pools = make([]*sync.Pool, len(s.Ladder))
	for r := range s.Ladder {
		s.pools[r] = &sync.Pool{New: s.Ladder[r].newScratch}
	}
	ck := cfg.Checkpoint
	if ck == nil || !ck.Resume {
		return 0, nil
	}
	snap, _, err := checkpoint.Load(ck.Path, cfg.Metrics)
	if checkpoint.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if err := s.Fingerprint.Check(snap.Fingerprint); err != nil {
		return 0, fmt.Errorf("core: cannot resume %s: %w", ck.Path, err)
	}
	if snap.Next > 0 {
		m, err := s.Restore(snap.State)
		if err != nil {
			return 0, fmt.Errorf("core: %s: %w: state payload: %v", ck.Path, checkpoint.ErrCorruptCheckpoint, err)
		}
		cfg.Metrics.Merge(m)
		cfg.Metrics.Add(runner.Resumed, int64(snap.Next))
		s.next = snap.Next
	}
	return s.next, nil
}

// Run evaluates samples [cut, n) on top of everything delivered so far,
// where cut is where Start (which must come first) or the previous Run
// left off; drivers that grow their sample count (adaptive IS rounds)
// call it once per round. A journaled run flushes once more when the
// sweep completes. With Checkpoint.Limit below n the sweep stops at the
// Limit, flushes there and returns an error wrapping ErrPartial.
func (s *Sweep[T]) Run(ctx context.Context, n int) error {
	ck := s.cfg.Checkpoint
	end := n
	if ck != nil && ck.Limit > 0 && ck.Limit < n {
		end = ck.Limit
		if s.next >= end {
			return fmt.Errorf("core: samples [0,%d) already durable in %s: %w", s.next, ck.Path, ErrPartial)
		}
	}
	opts := runner.Options{
		Workers:   s.cfg.Workers,
		BatchSize: s.cfg.BatchSize,
		Metrics:   s.cfg.Metrics,
		Progress:  s.cfg.Progress,
		Start:     s.next,
		OnSkip: func(i int, err error) {
			s.cfg.Metrics.AddFailure(string(s.Failures.record(i, err)))
		},
	}
	if ck != nil {
		opts.OnCheckpoint = s.flush
		opts.CheckpointEvery = ck.Every
	}
	err := runner.MapWorker(ctx, end, opts, s.newWorker, s.sample, func(i int, o sweepOut[T]) {
		if o.degraded {
			s.Failures.Degraded++
		}
		if s.Deliver != nil {
			s.Deliver(i, o.v)
		}
	})
	if err != nil {
		return err
	}
	if s.next < end {
		s.next = end
	}
	if ck != nil {
		// One unconditional snapshot after the sweep: resuming a completed
		// run restores the final state and evaluates nothing, which also
		// makes kill/resume scripts race-free when the kill lands late.
		s.flush(s.next)
		if s.flushErr != nil {
			return fmt.Errorf("core: checkpoint write failed: %w", s.flushErr)
		}
	}
	if end < n {
		return fmt.Errorf("core: samples [0,%d) of %d durable in %s: %w", end, n, ck.Path, ErrPartial)
	}
	return nil
}

// newWorker builds one worker's state.
func (s *Sweep[T]) newWorker() *sweepWorker[T] {
	w := &sweepWorker[T]{sc: s.Primary.newScratch()}
	if s.NewShard != nil {
		w.shard = s.NewShard()
	}
	return w
}

// sample evaluates sample i under the OnFailure policy. Cancellation is
// never a sample failure: it bypasses the policy, so a canceled run
// cannot journal a spurious skip.
func (s *Sweep[T]) sample(ctx context.Context, i int, w *sweepWorker[T]) (sweepOut[T], error) {
	v, abandoned, err := s.watch(ctx, i, &s.Primary, w.sc)
	if abandoned {
		w.sc = s.Primary.newScratch() // the hung goroutine keeps the old one
	}
	if err == nil {
		if w.shard != nil {
			w.shard(v)
		}
		return sweepOut[T]{v: v}, nil
	}
	if ctx.Err() != nil {
		return sweepOut[T]{}, ctx.Err()
	}
	switch s.cfg.OnFailure {
	case Skip:
		return sweepOut[T]{}, runner.SkipSample(NewSampleError(i, err))
	case Degrade:
		for r := range s.Ladder {
			rung := &s.Ladder[r]
			sc := s.pools[r].Get()
			v, abandoned, rerr := s.watch(ctx, i, rung, sc)
			if !abandoned {
				s.pools[r].Put(sc)
			}
			if rerr == nil {
				s.cfg.Metrics.Add(runner.Degraded, 1)
				if w.shard != nil {
					w.shard(v)
				}
				return sweepOut[T]{v: v, degraded: true}, nil
			}
			if ctx.Err() != nil {
				return sweepOut[T]{}, ctx.Err()
			}
			err = fmt.Errorf("%s rung also failed: %w (previous: %v)", rung.Name, rerr, err)
		}
		return sweepOut[T]{}, runner.SkipSample(NewSampleError(i, err))
	default: // FailFast: wrap with the taxonomy so callers get a typed error.
		return sweepOut[T]{}, NewSampleError(i, err)
	}
}

// flush writes one journal snapshot at the prefix cut next. It runs on
// the ordered-delivery goroutine (and once more after the sweep), so
// Save may read the driver's accumulators without locking. The first
// write error latches and fails the run after the sweep: a journal that
// silently stopped persisting is worse than a loud failure.
func (s *Sweep[T]) flush(next int) {
	if s.flushErr != nil {
		return
	}
	// Resumed describes what this process restored, not what the run
	// evaluated; the next resume recomputes it from its own cut.
	m := s.cfg.Metrics.Snapshot()
	m.Resumed = 0
	body, err := json.Marshal(s.Save(next, m))
	if err == nil {
		err = checkpoint.Save(s.cfg.Checkpoint.Path, &checkpoint.Snapshot{Fingerprint: s.Fingerprint, Next: next, State: body}, s.cfg.Metrics)
	}
	s.flushErr = err
}
