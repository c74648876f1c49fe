package jobd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/job"
	"lcsim/internal/modelcache"
	"lcsim/internal/runner"
)

// Config wires a Supervisor.
type Config struct {
	// Queue is the durable job queue (required).
	Queue *Queue
	// Jobs bounds concurrently executing jobs (default 2). Each job's
	// sweep additionally parallelizes internally per its spec's Workers.
	Jobs int
	// ShardSamples is the sample-range shard size for shardable drivers
	// (default 64; <= 0 disables sharding). Smaller shards mean finer
	// retry/drain granularity at slightly more resume overhead.
	ShardSamples int
	// Every is the journal flush cadence within a shard (default 16
	// samples) — the bound on work lost to a SIGKILL.
	Every int
	// MaxAttempts bounds transient retries per shard (default 5). The
	// budget resets whenever a shard completes: forward progress earns
	// back the benefit of the doubt.
	MaxAttempts int
	// BackoffBase/BackoffCap shape the capped exponential retry backoff
	// (defaults 100ms / 5s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Heartbeat is the shard watchdog threshold (default 1m; <= 0
	// disables it): an attempt whose sweep reports no progress for this
	// long is canceled and retried as transient.
	Heartbeat time.Duration
	// DrainGrace is how long a canceled attempt may take to unwind
	// before the supervisor abandons its goroutine (default 5s). An
	// abandoned attempt may still flush the shared journal later; that
	// is safe by design — snapshots are prefix-consistent and execution
	// is deterministic, so a stale flush can only regress the durable
	// cut (wasted work), never corrupt it (see the package comment).
	DrainGrace time.Duration
	// Poll is the queue rescan interval (default 1s).
	Poll time.Duration
	// MacroCache, when set, is shared across jobs and bound to each
	// attempt's context (a hung extraction cannot strand other jobs).
	MacroCache *modelcache.Store
	// Logf receives one-line operational events (nil = silent).
	Logf func(format string, args ...any)
}

// errStalled marks a shard attempt killed by the heartbeat watchdog —
// transient by classification (wall-clock stalls are not properties of
// the spec).
var errStalled = errors.New("jobd: shard stalled: heartbeat lost")

// Supervisor executes queued jobs as chains of journaled shards. One
// Supervisor per queue per process; Run is the daemon main loop.
type Supervisor struct {
	cfg Config

	mu      sync.Mutex
	claimed map[string]bool
}

// New builds a supervisor, applying config defaults.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Queue == nil {
		return nil, fmt.Errorf("jobd: Config.Queue is required")
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	if cfg.ShardSamples == 0 {
		cfg.ShardSamples = 64
	}
	if cfg.Every <= 0 {
		cfg.Every = 16
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = time.Minute
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Supervisor{cfg: cfg, claimed: map[string]bool{}}, nil
}

// Run is the daemon loop: scan the queue, claim queued jobs onto the
// worker pool, repeat. Canceling ctx is the graceful drain: no new
// claims, in-flight attempts are canceled (their journals keep every
// flushed prefix), interrupted jobs requeue, and Run returns once every
// executor has unwound or been abandoned past its grace. Run never
// returns an error for job failures — those are queue state; it returns
// after a drain.
func (s *Supervisor) Run(ctx context.Context) error {
	sem := make(chan struct{}, s.cfg.Jobs)
	var wg sync.WaitGroup
	for {
		if ctx.Err() == nil {
			s.dispatch(ctx, sem, &wg)
		}
		select {
		case <-ctx.Done():
			wg.Wait()
			s.cfg.Logf("jobd: drained")
			return nil
		case <-time.After(s.cfg.Poll):
		}
	}
}

// dispatch claims every currently-queued, unclaimed job for which a
// worker slot is free.
func (s *Supervisor) dispatch(ctx context.Context, sem chan struct{}, wg *sync.WaitGroup) {
	ids, err := s.cfg.Queue.Jobs()
	if err != nil {
		s.cfg.Logf("jobd: queue scan: %v", err)
		return
	}
	for _, id := range ids {
		if ctx.Err() != nil {
			return
		}
		s.mu.Lock()
		busy := s.claimed[id]
		s.mu.Unlock()
		if busy {
			continue
		}
		st, err := s.cfg.Queue.State(id)
		if err != nil || st.Status != StatusQueued {
			continue
		}
		select {
		case sem <- struct{}{}:
		default:
			return // pool full; next poll rescans
		}
		s.mu.Lock()
		s.claimed[id] = true
		s.mu.Unlock()
		wg.Add(1)
		go func(id string, attempts int) {
			defer wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.claimed, id)
				s.mu.Unlock()
				<-sem
			}()
			s.runJob(ctx, id, attempts)
		}(id, st.Attempts)
	}
}

// runJob drives one job to done/failed/requeued: shard loop, retry
// policy, terminal state writes.
func (s *Supervisor) runJob(ctx context.Context, id string, attempts int) {
	q := s.cfg.Queue
	spec, err := q.Spec(id)
	if err != nil {
		// An unreadable spec is an I/O property, not a property of the job
		// (Spec re-verifies the content hash, so a corrupting read fails
		// here too): retry through the normal transient budget rather than
		// condemning the job on one bad read. A genuinely torn spec file
		// exhausts MaxAttempts and fails with the real error attached.
		attempts++
		if attempts >= s.cfg.MaxAttempts {
			s.terminal(id, attempts, fmt.Errorf("jobd: unreadable spec: %w", err))
			return
		}
		s.cfg.Logf("jobd: job %s: spec read failed (attempt %d/%d): %v", id, attempts, s.cfg.MaxAttempts, err)
		if serr := q.SetState(id, &State{Status: StatusQueued, Attempts: attempts}); serr != nil {
			s.cfg.Logf("jobd: job %s: attempt record: %v", id, serr)
		}
		return
	}
	// Pre-flight: an unknown driver or malformed params is deterministic
	// — fail now, not after MaxAttempts identical retries.
	if _, ok := job.Lookup(spec.Driver); !ok {
		s.terminal(id, attempts, fmt.Errorf("jobd: unknown driver %q", spec.Driver))
		return
	}
	n, shardable, err := job.SweepSamples(spec)
	if err != nil {
		s.terminal(id, attempts, err)
		return
	}

	for {
		// The journal, not memory, says where the job is: shard limits are
		// computed from the durable cut so a retry after a stale-writer
		// regression simply re-covers the lost range. A journal with no
		// readable generation (say, two torn saves in a row that reported
		// success) is dropped and the job restarts from sample 0: the
		// journal is only a prefix cut of a deterministic stream, so
		// re-evaluating it reproduces the same bits.
		next, err := q.DurableCut(id)
		if errors.Is(err, checkpoint.ErrCorruptCheckpoint) {
			s.cfg.Logf("jobd: job %s: journal unreadable, restarting from sample 0: %v", id, err)
			if derr := q.dropJournal(id); derr != nil {
				s.cfg.Logf("jobd: job %s: drop journal: %v", id, derr)
			}
		}
		limit := 0
		if shardable && s.cfg.ShardSamples > 0 && n > 0 && next+s.cfg.ShardSamples < n {
			limit = next + s.cfg.ShardSamples
		}

		res, stdout, err := s.runShard(ctx, id, spec, limit)
		if err == nil {
			if perr := q.PutResult(id, res, stdout); perr != nil {
				err = perr // commit I/O trouble retries like any transient
			} else {
				s.cfg.Logf("jobd: job %s: done", id)
				return
			}
		}
		if errors.Is(err, core.ErrPartial) {
			// Shard durable; forward progress resets the retry budget.
			attempts = 0
			s.cfg.Logf("jobd: job %s: durable through %d/%d", id, limit, n)
			continue
		}

		switch kind := Classify(err); kind {
		case Interrupted:
			if serr := q.SetState(id, &State{Status: StatusQueued, Attempts: attempts}); serr != nil {
				s.cfg.Logf("jobd: job %s: requeue record: %v", id, serr)
			}
			s.cfg.Logf("jobd: job %s: interrupted, requeued (journal keeps the durable prefix)", id)
			return
		case Permanent:
			s.terminal(id, attempts+1, err)
			return
		default: // Transient
			attempts++
			if attempts >= s.cfg.MaxAttempts {
				s.terminal(id, attempts, fmt.Errorf("jobd: %d attempts exhausted: %w", attempts, err))
				return
			}
			if serr := q.SetState(id, &State{Status: StatusQueued, Attempts: attempts}); serr != nil {
				s.cfg.Logf("jobd: job %s: attempt record: %v", id, serr)
			}
			d := s.backoff(attempts)
			s.cfg.Logf("jobd: job %s: transient failure (attempt %d/%d, retry in %v): %v",
				id, attempts, s.cfg.MaxAttempts, d, err)
			select {
			case <-ctx.Done():
				return // already recorded as queued; restart resumes
			case <-time.After(d):
			}
		}
	}
}

// terminal records a permanent failure.
func (s *Supervisor) terminal(id string, attempts int, err error) {
	s.cfg.Logf("jobd: job %s: failed permanently: %v", id, err)
	if serr := s.cfg.Queue.SetState(id, &State{Status: StatusFailed, Attempts: attempts, Error: err.Error()}); serr != nil {
		s.cfg.Logf("jobd: job %s: failure record: %v", id, serr)
	}
}

// backoff is the capped exponential retry delay for the given attempt
// count (1-based).
func (s *Supervisor) backoff(attempt int) time.Duration {
	d := s.cfg.BackoffBase
	for i := 1; i < attempt && d < s.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffCap {
		d = s.cfg.BackoffCap
	}
	return d
}

// runShard executes one Limit-bounded leg of the job under the shard
// watchdog. It returns the driver result and captured stdout on
// completion; core.ErrPartial when the leg's cut went durable; an
// errStalled-wrapped error when the watchdog killed the attempt; the
// underlying cancellation when the supervisor is draining.
//
// The attempt runs in its own goroutine so a wedged evaluation (a hung
// engine ignoring its context) cannot wedge the supervisor: after
// cancellation plus DrainGrace the goroutine is abandoned. Its late
// journal flushes are harmless (prefix-consistent, deterministic
// re-execution) and its buffered stdout is discarded.
func (s *Supervisor) runShard(ctx context.Context, id string, spec *job.Spec, limit int) (*job.Result, []byte, error) {
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat: the sweep's progress callback stamps lastBeat; the
	// watchdog cancels the attempt when the stamp goes stale.
	var lastBeat atomic.Int64
	lastBeat.Store(time.Now().UnixNano())
	var stalled atomic.Bool
	if hb := s.cfg.Heartbeat; hb > 0 {
		watchdogDone := make(chan struct{})
		defer close(watchdogDone)
		go func() {
			tick := time.NewTicker(hb / 4)
			defer tick.Stop()
			for {
				select {
				case <-watchdogDone:
					return
				case <-attemptCtx.Done():
					return
				case <-tick.C:
					if time.Since(time.Unix(0, lastBeat.Load())) > hb {
						stalled.Store(true)
						cancel()
						return
					}
				}
			}
		}()
	}

	// The daemon owns the journal wiring; the spec's own checkpoint
	// block (execution wiring, outside the hash) is overridden.
	sp := *spec
	sp.Run.Checkpoint = &job.CheckpointSpec{
		Path:   s.cfg.Queue.JournalPath(id),
		Every:  s.cfg.Every,
		Resume: true,
		Limit:  limit,
	}
	var out bytes.Buffer
	env := &job.Env{
		Stdout:  &out,
		Stderr:  &out,
		Metrics: &runner.Metrics{},
		Progress: func(string) func(done, total int) {
			return func(int, int) { lastBeat.Store(time.Now().UnixNano()) }
		},
	}
	if s.cfg.MacroCache != nil {
		env.MacroCache = s.cfg.MacroCache.Bind(attemptCtx)
	}

	type outcome struct {
		res *job.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := job.Run(attemptCtx, &sp, env)
		done <- outcome{res, err}
	}()

	finish := func(o outcome) (*job.Result, []byte, error) {
		if stalled.Load() && errors.Is(o.err, context.Canceled) {
			return nil, nil, fmt.Errorf("%w after %v without progress", errStalled, s.cfg.Heartbeat)
		}
		return o.res, out.Bytes(), o.err
	}
	select {
	case o := <-done:
		return finish(o)
	case <-attemptCtx.Done():
		select {
		case o := <-done:
			return finish(o)
		case <-time.After(s.cfg.DrainGrace):
			if stalled.Load() {
				return nil, nil, fmt.Errorf("%w (attempt abandoned after %v grace)", errStalled, s.cfg.DrainGrace)
			}
			return nil, nil, fmt.Errorf("jobd: shard abandoned during drain: %w", context.Cause(attemptCtx))
		}
	}
}
