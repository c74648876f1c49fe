// Package runner is the parallel evaluation runtime behind the
// framework's Monte-Carlo loops: a chunked worker pool with
// context.Context cancellation, deterministic lowest-index-wins error
// reporting, in-order result delivery (so streaming statistics are
// bit-identical at any worker count), per-index RNG stream derivation,
// and a lightweight metrics/progress layer.
//
// The paper's headline efficiency claim (§4.3.1) is that each
// statistical sample costs only a library evaluation plus a Successive-
// Chords transient; this package is what lets the framework spend those
// cheap evaluations on every core without giving up reproducibility.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSkip is the sentinel recognized by Map/MapWorker for per-sample
// degradation: an evaluation function that returns an error satisfying
// errors.Is(err, ErrSkip) marks its sample as *skipped* rather than
// failed — the run continues, the sample is excluded from sink delivery,
// and Options.OnSkip observes the exclusion. Build such errors with
// SkipSample so the underlying cause stays inspectable.
var ErrSkip = errors.New("runner: sample skipped")

// SkipSample wraps cause into a skip marker: Map/MapWorker exclude the
// sample from delivery instead of failing the run, and report cause to
// Options.OnSkip. errors.Is(SkipSample(c), ErrSkip) holds, and the full
// cause chain stays reachable through errors.As/Is.
func SkipSample(cause error) error { return &skipError{cause} }

type skipError struct{ cause error }

func (e *skipError) Error() string {
	if e.cause == nil {
		return ErrSkip.Error()
	}
	return "runner: sample skipped: " + e.cause.Error()
}

func (e *skipError) Is(target error) bool { return target == ErrSkip }
func (e *skipError) Unwrap() error        { return e.cause }

// Options configures one Map run.
type Options struct {
	// Workers selects the evaluation parallelism: 0 runs serially on the
	// calling goroutine, -1 (or any negative value) uses GOMAXPROCS, and
	// a positive value runs exactly that many workers.
	Workers int
	// BatchSize is how many consecutive indices a worker claims — and
	// evaluates, and delivers to the collector as one message — per
	// dispatch (default: a size that yields ~8 batches per worker, capped
	// at 64). Larger batches amortize channel traffic; smaller batches
	// balance load. Delivery order, skip-sets and everything the sink
	// accumulates are bit-identical at any batch size: batching changes
	// only how results travel to the single ordered-delivery goroutine,
	// never the order they leave it.
	BatchSize int
	// Metrics, when non-nil, receives a Samples increment per completed
	// evaluation (evaluation code adds its own counters).
	Metrics *Metrics
	// Progress, when non-nil, is called from the collector goroutine
	// every ProgressEvery completed samples and once at the end.
	Progress func(done, total int)
	// ProgressEvery is the sample interval between Progress calls
	// (default max(1, n/100)).
	ProgressEvery int
	// OnSkip, when non-nil, is called for every sample whose evaluation
	// returned a SkipSample error — from the collector goroutine, in
	// strict index order, interleaved with sink deliveries — so failure
	// reports built in OnSkip are bit-identical at any worker count. The
	// error passed is the full skip error (unwrap for the cause).
	OnSkip func(i int, err error)
	// Start is the first index to evaluate: the run covers [Start, n).
	// A checkpoint-resumed run sets Start to the snapshot's prefix cut and
	// re-evaluates only the remainder; because every per-index contract
	// (RNG streams, skip decisions, ordered delivery) is a pure function
	// of the index, the combined run is bit-identical to an uninterrupted
	// one. Negative values are treated as 0.
	Start int
	// OnCheckpoint, when non-nil, is called from the same single goroutine
	// that runs sink and OnSkip — the ordered-delivery drain — with the
	// current prefix cut: every index < next has been delivered (to sink)
	// or skipped (to OnSkip), and no index >= next has. Anything the sink
	// accumulated is therefore a prefix-consistent snapshot at that
	// instant, safe to serialize without locking. Calls follow the
	// CheckpointEvery / checkpointInterval cadence, whichever fires first.
	OnCheckpoint func(next int)
	// CheckpointEvery is the number of ordered deliveries between
	// OnCheckpoint calls (default 64).
	CheckpointEvery int
}

// checkpointInterval is the wall-clock bound between OnCheckpoint calls:
// when it elapses, the next ordered delivery triggers a flush even if
// CheckpointEvery has not been reached.
const checkpointInterval = 30 * time.Second

// ResolveWorkers maps the Workers convention (0 = serial, negative =
// GOMAXPROCS, positive = exact) to an actual worker count ≥ 1.
func ResolveWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w == 0 {
		return 1
	}
	return w
}

func (o Options) batchSize(n, workers int) int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	c := n / (workers * 8)
	if c < 1 {
		c = 1
	}
	if c > 64 {
		c = 64
	}
	return c
}

func (o Options) progressEvery(n int) int {
	if o.ProgressEvery > 0 {
		return o.ProgressEvery
	}
	e := n / 100
	if e < 1 {
		e = 1
	}
	return e
}

func (o Options) start() int {
	if o.Start < 0 {
		return 0
	}
	return o.Start
}

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return 64
}

// ckptCadence tracks the every-K-deliveries / every-T-seconds checkpoint
// cadence for one drain goroutine (no locking: it is only touched from
// the ordered-delivery goroutine).
type ckptCadence struct {
	fn    func(next int)
	every int
	since int       // ordered deliveries since the last flush
	last  time.Time // wall time of the last flush
}

func newCkptCadence(o Options) *ckptCadence {
	if o.OnCheckpoint == nil {
		return nil
	}
	return &ckptCadence{
		fn:    o.OnCheckpoint,
		every: o.checkpointEvery(),
		last:  time.Now(),
	}
}

// delivered notes one ordered delivery (value or skip) and flushes the
// hook when either cadence bound is reached. next is the prefix cut
// after the delivery.
func (c *ckptCadence) delivered(next int) {
	if c == nil {
		return
	}
	c.since++
	if c.since < c.every && time.Since(c.last) < checkpointInterval {
		return
	}
	c.since = 0
	c.last = time.Now()
	c.fn(next)
}

// result carries one evaluation outcome to the collector.
type result[T any] struct {
	i   int
	v   T
	err error
}

// Map evaluates fn(ctx, i) for every i in [0, n), with opts.Workers
// parallelism, and delivers the values to sink *in strict index order*
// from a single goroutine — streaming accumulators fed by sink therefore
// produce bit-identical results at any worker count. sink may be nil.
//
// Error semantics are deterministic: the reported error is the one with
// the lowest sample index. On the first error, no sample at or beyond
// that index is started (outstanding work is abandoned); samples below
// it run to completion so a lower-index error can still win. The error
// is wrapped as "sample %d: ...".
//
// Degradation: an fn error wrapping ErrSkip (build it with SkipSample)
// does NOT fail the run — the sample is excluded from sink delivery,
// counted in Metrics, and reported to Options.OnSkip in strict index
// order. Because skipping is a per-index decision made by fn, the
// skip-set — and everything the sink accumulates — is identical at any
// worker count.
//
// Cancellation: when ctx is canceled (or its deadline passes), workers
// stop between samples and Map returns ctx.Err() wrapped with the
// sample index reached — errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) hold as appropriate.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error), sink func(i int, v T)) error {
	return MapWorker(ctx, n, opts,
		func() struct{} { return struct{}{} },
		func(ctx context.Context, i int, _ struct{}) (T, error) { return fn(ctx, i) },
		sink)
}

// MapWorker is Map with per-worker state: newState runs once on each
// worker goroutine (once total on the serial path) and its value is
// passed to every fn call that worker makes. Evaluation loops use it to
// reuse expensive scratch buffers — convolver coefficient memos, solver
// workspaces — without any locking, because a state value is only ever
// touched by its owning worker. Determinism is unchanged: results still
// arrive at sink in strict index order, and a sample's value must not
// depend on its worker's state history (states are caches, not
// accumulators).
func MapWorker[S, T any](ctx context.Context, n int, opts Options, newState func() S, fn func(ctx context.Context, i int, state S) (T, error), sink func(i int, v T)) error {
	start := opts.start()
	if n <= 0 || start >= n {
		return nil
	}
	workers := ResolveWorkers(opts.Workers)
	if workers > n-start {
		workers = n - start
	}
	if workers == 1 {
		return mapSerial(ctx, n, opts, newState, fn, sink)
	}
	batch := opts.batchSize(n-start, workers)
	every := opts.progressEvery(n)

	var (
		next   atomic.Int64 // next unclaimed index
		minErr atomic.Int64 // lowest index that has errored (n = none)
		wg     sync.WaitGroup
	)
	next.Store(int64(start))
	minErr.Store(int64(n))
	// Each channel message is one worker's whole batch: K evaluations
	// amortize a single send, so channel traffic no longer scales with the
	// sample count. The collector unpacks batches item by item into the
	// same ordered drain, so delivery stays bit-identical at any (workers,
	// batch) combination.
	results := make(chan []result[T], workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for {
				lo := int(next.Add(int64(batch))) - batch
				if lo >= n {
					return
				}
				end := lo + batch
				if end > n {
					end = n
				}
				out := make([]result[T], 0, end-lo)
				t0 := time.Now()
				for i := lo; i < end; i++ {
					if ctx.Err() != nil {
						break
					}
					// Nothing at or beyond the first error matters; work
					// below it still runs so the lowest index wins.
					if int64(i) >= minErr.Load() {
						continue
					}
					v, err := fn(ctx, i, state)
					if err != nil && !errors.Is(err, ErrSkip) {
						storeMin(&minErr, int64(i))
					}
					out = append(out, result[T]{i, v, err})
				}
				opts.Metrics.Add(BusyNs, time.Since(t0).Nanoseconds())
				if len(out) > 0 {
					t1 := time.Now()
					results <- out
					opts.Metrics.Add(SendWaitNs, time.Since(t1).Nanoseconds())
				}
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: reorder results to strict index order for sink/OnSkip,
	// track the lowest-index error and progress. Skipped samples (errors
	// wrapping ErrSkip) flow through the same ordered drain as values, so
	// OnSkip observes exclusions in strict index order too. The checkpoint
	// cadence also lives here: OnCheckpoint fires between ordered
	// deliveries, so every flush sees a prefix-consistent cut.
	ckpt := newCkptCadence(opts)
	pending := make(map[int]result[T])
	nextOut := start
	done := 0
	firstErrIdx := n
	var firstErr error
	for rs := range results {
		for _, r := range rs {
			done++
			opts.Metrics.Add(Samples, 1)
			if r.err != nil && !errors.Is(r.err, ErrSkip) {
				if r.i < firstErrIdx {
					firstErrIdx = r.i
					firstErr = r.err
				}
			} else {
				pending[r.i] = r
				for {
					p, ok := pending[nextOut]
					if !ok {
						break
					}
					delete(pending, nextOut)
					if p.err != nil {
						opts.Metrics.Add(Skipped, 1)
						if opts.OnSkip != nil {
							opts.OnSkip(p.i, p.err)
						}
					} else if sink != nil {
						sink(p.i, p.v)
					}
					nextOut++
					ckpt.delivered(nextOut)
				}
			}
			if opts.Progress != nil && done%every == 0 {
				opts.Progress(start+done, n)
			}
		}
	}
	if opts.Progress != nil {
		opts.Progress(start+done, n)
	}
	if firstErr != nil {
		return fmt.Errorf("sample %d: %w", firstErrIdx, firstErr)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("runner: canceled at sample %d: %w", nextOut, err)
	}
	return nil
}

// mapSerial is the workers == 1 path: no goroutines, same semantics,
// one state value for the whole run.
func mapSerial[S, T any](ctx context.Context, n int, opts Options, newState func() S, fn func(ctx context.Context, i int, state S) (T, error), sink func(i int, v T)) error {
	every := opts.progressEvery(n)
	ckpt := newCkptCadence(opts)
	t0 := time.Now()
	defer func() { opts.Metrics.Add(BusyNs, time.Since(t0).Nanoseconds()) }()
	state := newState()
	for i := opts.start(); i < n; i++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("runner: canceled at sample %d: %w", i, err)
		}
		v, err := fn(ctx, i, state)
		if err != nil {
			if !errors.Is(err, ErrSkip) {
				return fmt.Errorf("sample %d: %w", i, err)
			}
			opts.Metrics.Add(Samples, 1)
			opts.Metrics.Add(Skipped, 1)
			if opts.OnSkip != nil {
				opts.OnSkip(i, err)
			}
			ckpt.delivered(i + 1)
			if opts.Progress != nil && ((i+1)%every == 0 || i == n-1) {
				opts.Progress(i+1, n)
			}
			continue
		}
		opts.Metrics.Add(Samples, 1)
		if sink != nil {
			sink(i, v)
		}
		ckpt.delivered(i + 1)
		if opts.Progress != nil && ((i+1)%every == 0 || i == n-1) {
			opts.Progress(i+1, n)
		}
	}
	return nil
}

// storeMin atomically lowers v to x if x is smaller.
func storeMin(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x >= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// IndexSeed derives a per-sample RNG seed from a master seed via a
// SplitMix64 mix. Seeding a generator with IndexSeed(master, i) gives
// every sample its own independent, reproducible stream regardless of
// which worker (or how many workers) evaluates it.
func IndexSeed(master int64, i int) int64 {
	z := uint64(master) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
