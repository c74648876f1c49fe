package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolveWorkers(t *testing.T) {
	if ResolveWorkers(0) != 1 {
		t.Fatal("0 must mean serial (one worker)")
	}
	if ResolveWorkers(3) != 3 {
		t.Fatal("positive counts are taken literally")
	}
	if ResolveWorkers(-1) < 1 {
		t.Fatal("-1 must resolve to GOMAXPROCS")
	}
}

func TestMapOrderedSink(t *testing.T) {
	const n = 500
	for _, workers := range []int{0, 4, 16} {
		var got []int
		err := Map(context.Background(), n, Options{Workers: workers},
			func(_ context.Context, i int) (int, error) { return i * i, nil },
			func(i, v int) { got = append(got, i) })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: sink saw %d of %d", workers, len(got), n)
		}
		for i, g := range got {
			if g != i {
				t.Fatalf("workers=%d: sink out of order at %d: %d", workers, i, g)
			}
		}
	}
}

func TestMapWorkerCountInvariance(t *testing.T) {
	// The sink-visible value stream must be identical at any worker
	// count, including order — this is what makes streaming statistics
	// reproducible.
	run := func(workers int) []float64 {
		out := make([]float64, 0, 200)
		err := Map(context.Background(), 200, Options{Workers: workers},
			func(_ context.Context, i int) (float64, error) {
				return float64(IndexSeed(7, i)%1000) / 3.0, nil
			},
			func(_ int, v float64) { out = append(out, v) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, w := range []int{4, 16} {
		got := run(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d differs at %d", w, i)
			}
		}
	}
}

func TestMapErrorLowestIndexWins(t *testing.T) {
	// Two failing indices: the lower one must always be reported, at any
	// worker count, because samples below a known error keep running.
	for _, workers := range []int{0, 8} {
		for trial := 0; trial < 5; trial++ {
			err := Map(context.Background(), 300, Options{Workers: workers, BatchSize: 1},
				func(_ context.Context, i int) (int, error) {
					if i == 211 || i == 37 {
						return 0, fmt.Errorf("boom at %d", i)
					}
					return i, nil
				}, nil)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.HasPrefix(err.Error(), "sample 37:") {
				t.Fatalf("workers=%d: wrong error: %v", workers, err)
			}
		}
	}
}

func TestMapErrorStopsEarly(t *testing.T) {
	const n = 10000
	var evaluated atomic.Int64
	boom := errors.New("boom")
	err := Map(context.Background(), n, Options{Workers: 4},
		func(_ context.Context, i int) (int, error) {
			evaluated.Add(1)
			if i == 50 {
				return 0, boom
			}
			return i, nil
		}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("expected wrapped boom, got %v", err)
	}
	if ev := evaluated.Load(); ev >= n/2 {
		t.Fatalf("error did not stop outstanding work: %d of %d samples ran", ev, n)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var doneSamples atomic.Int64
	err := Map(ctx, 10000, Options{Workers: 4},
		func(ctx context.Context, i int) (int, error) {
			if doneSamples.Add(1) == 100 {
				cancel()
			}
			time.Sleep(20 * time.Microsecond)
			return i, nil
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "sample") {
		t.Fatalf("cancellation must report the sample index reached: %v", err)
	}
	if n := doneSamples.Load(); n >= 10000 {
		t.Fatal("cancellation did not abort the run")
	}
}

func TestMapDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := Map(ctx, 1<<30, Options{Workers: 2},
		func(_ context.Context, i int) (int, error) {
			time.Sleep(100 * time.Microsecond)
			return i, nil
		}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestMapSerialCancellationIndex(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := Map(ctx, 100, Options{Workers: 0},
		func(_ context.Context, i int) (int, error) {
			if i == 9 {
				cancel()
			}
			return i, nil
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "sample 10") {
		t.Fatalf("serial cancel must report index reached: %v", err)
	}
}

func TestMetricsAndProgress(t *testing.T) {
	var m Metrics
	var calls atomic.Int64
	var lastDone atomic.Int64
	err := Map(context.Background(), 1000, Options{
		Workers: 4, Metrics: &m, ProgressEvery: 100,
		Progress: func(done, total int) {
			calls.Add(1)
			lastDone.Store(int64(done))
			if total != 1000 {
				t.Errorf("total = %d", total)
			}
		},
	}, func(_ context.Context, i int) (int, error) {
		m.Add(SCIterations, 2)
		return i, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.Samples != 1000 {
		t.Fatalf("samples = %d", s.Samples)
	}
	if s.SCIterations != 2000 {
		t.Fatalf("SC iterations = %d", s.SCIterations)
	}
	if calls.Load() == 0 || lastDone.Load() != 1000 {
		t.Fatalf("progress: %d calls, last done %d", calls.Load(), lastDone.Load())
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	for c := Counter(0); c < numCounters; c++ {
		m.Add(c, 1)
	}
	m.AddFailure("sc-diverged")
	m.Merge(Snapshot{Samples: 1, Failures: map[string]int64{"timeout": 1}})
	if s := m.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Fatalf("nil metrics must read as zero, got %+v", s)
	}
}

func TestIndexSeedStreamsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		s := IndexSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at %d", i)
		}
		seen[s] = true
	}
	if IndexSeed(1, 0) == IndexSeed(2, 0) {
		t.Fatal("different masters must give different streams")
	}
}

func TestMapZeroAndNegativeN(t *testing.T) {
	if err := Map(context.Background(), 0, Options{}, func(_ context.Context, i int) (int, error) { return i, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if err := Map(context.Background(), -5, Options{}, func(_ context.Context, i int) (int, error) { return i, nil }, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMapSpeedup demonstrates the worker-pool wall-clock win on a
// CPU-bound per-sample cost (compare serial vs parallel ns/op).
func BenchmarkMapSpeedup(b *testing.B) {
	work := func(_ context.Context, i int) (float64, error) {
		acc := float64(i)
		for k := 0; k < 20000; k++ {
			acc += float64(k%7) * 1e-9
		}
		return acc, nil
	}
	for _, v := range []struct {
		name    string
		workers int
	}{{"serial", 0}, {"parallel", -1}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := Map(context.Background(), 1000, Options{Workers: v.workers}, work, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMapBatch isolates the dispatch overhead batching removes: a
// near-free per-sample kernel makes the per-result channel round-trip
// the dominant cost, so ns/op tracks dispatch overhead almost directly.
// Compare batch=1 (one send/receive per sample) against larger batches.
func BenchmarkMapBatch(b *testing.B) {
	work := func(_ context.Context, i int) (float64, error) { return float64(i) * 1.5, nil }
	for _, batch := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := Map(context.Background(), 10000,
					Options{Workers: 4, BatchSize: batch}, work, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestMapWorkerStateIsolation(t *testing.T) {
	// Each worker goroutine gets exactly one state value, created on that
	// goroutine, and no state is ever touched by two workers: a non-atomic
	// counter in the state must account for every sample with no lost
	// updates, and the number of states created must not exceed the worker
	// count.
	type counter struct{ n int }
	const n, workers = 400, 7
	var created atomic.Int64
	var states [workers * 2]*counter // slots claimed per created state
	newState := func() *counter {
		c := &counter{}
		states[created.Add(1)-1] = c
		return c
	}
	err := MapWorker(context.Background(), n, Options{Workers: workers},
		newState,
		func(_ context.Context, i int, c *counter) (int, error) {
			c.n++ // safe only if the state is worker-private
			return i, nil
		},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	got := int(created.Load())
	if got > workers {
		t.Fatalf("created %d states for %d workers", got, workers)
	}
	total := 0
	for _, c := range states[:got] {
		total += c.n
	}
	if total != n {
		t.Fatalf("states account for %d of %d samples (state shared across workers?)", total, n)
	}
}

func TestMapWorkerSerialSingleState(t *testing.T) {
	// The workers<=1 path must create exactly one state and thread it
	// through every call in order.
	creates := 0
	var seen []int
	err := MapWorker(context.Background(), 5, Options{},
		func() *[]int { creates++; return &seen },
		func(_ context.Context, i int, s *[]int) (struct{}, error) {
			*s = append(*s, i)
			return struct{}{}, nil
		},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if creates != 1 {
		t.Fatalf("serial path created %d states, want 1", creates)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial state saw indices %v", seen)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("serial state saw %d calls, want 5", len(seen))
	}
}

// TestMapStartOffset checks Options.Start resumes a run mid-range: only
// [Start, n) is evaluated, delivery stays in strict index order, and the
// value stream matches the tail of a full run at any worker count.
func TestMapStartOffset(t *testing.T) {
	const n, start = 120, 47
	full := make([]int, 0, n)
	err := Map(context.Background(), n, Options{},
		func(_ context.Context, i int) (int, error) { return i * 3, nil },
		func(_ int, v int) { full = append(full, v) })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 5} {
		var evaluated atomic.Int64
		got := make([]int, 0, n-start)
		idx := make([]int, 0, n-start)
		err := Map(context.Background(), n, Options{Workers: workers, Start: start},
			func(_ context.Context, i int) (int, error) {
				evaluated.Add(1)
				if i < start {
					t.Errorf("workers=%d: evaluated index %d below Start=%d", workers, i, start)
				}
				return i * 3, nil
			},
			func(i, v int) { got = append(got, v); idx = append(idx, i) })
		if err != nil {
			t.Fatal(err)
		}
		if int(evaluated.Load()) != n-start {
			t.Fatalf("workers=%d: evaluated %d samples, want %d", workers, evaluated.Load(), n-start)
		}
		if fmt.Sprint(got) != fmt.Sprint(full[start:]) {
			t.Fatalf("workers=%d: resumed value stream differs from the tail of a full run", workers)
		}
		for k, i := range idx {
			if i != start+k {
				t.Fatalf("workers=%d: delivery order broken at %d: index %d", workers, k, i)
			}
		}
	}
	// Start at or past n is a completed run: nothing to do, no error.
	if err := Map(context.Background(), n, Options{Start: n},
		func(_ context.Context, i int) (int, error) {
			t.Error("no sample should be evaluated")
			return 0, nil
		}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMapOnCheckpointPrefixCut checks the OnCheckpoint hook: every call
// reports a cut no larger than the number of in-order deliveries the sink
// has seen, cuts are monotonic, and the every-K cadence fires throughout
// the run at any worker count.
func TestMapOnCheckpointPrefixCut(t *testing.T) {
	const n = 300
	for _, workers := range []int{0, 4} {
		delivered := 0
		var cuts []int
		err := Map(context.Background(), n,
			Options{
				Workers:         workers,
				CheckpointEvery: 10,
				OnCheckpoint: func(next int) {
					// Runs on the same goroutine as the sink: next must equal
					// the deliveries seen so far (a prefix-consistent cut).
					if next != delivered {
						t.Errorf("workers=%d: cut %d but %d deliveries", workers, next, delivered)
					}
					cuts = append(cuts, next)
				},
			},
			func(_ context.Context, i int) (int, error) { return i, nil },
			func(int, int) { delivered++ })
		if err != nil {
			t.Fatal(err)
		}
		if len(cuts) < n/10 {
			t.Fatalf("workers=%d: only %d checkpoint flushes for %d samples at every=10", workers, len(cuts), n)
		}
		for k := 1; k < len(cuts); k++ {
			if cuts[k] < cuts[k-1] {
				t.Fatalf("workers=%d: cuts not monotonic: %v", workers, cuts)
			}
		}
	}
}

// TestMapOnCheckpointCountsSkips checks skipped samples advance the
// prefix cut too — a checkpoint taken after a skip must not re-evaluate
// the skipped index on resume.
func TestMapOnCheckpointCountsSkips(t *testing.T) {
	const n = 40
	last := 0
	err := Map(context.Background(), n,
		Options{CheckpointEvery: 1, OnCheckpoint: func(next int) { last = next }},
		func(_ context.Context, i int) (int, error) {
			if i%3 == 0 {
				return 0, SkipSample(errors.New("boom"))
			}
			return i, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if last != n {
		t.Fatalf("final cut %d, want %d (skips must advance the cut)", last, n)
	}
}

// TestMetricsMerge checks restoring a checkpointed snapshot folds every
// counter, including the per-class failure map.
func TestMetricsMerge(t *testing.T) {
	var a Metrics
	a.Add(SCIterations, 5)
	a.Add(TimedOut, 2)
	a.Add(Resumed, 3)
	a.AddFailure("timeout")
	a.AddFailure("timeout")
	a.AddFailure("sc-diverged")
	var b Metrics
	b.Add(SCIterations, 7)
	b.AddFailure("timeout")
	b.Merge(a.Snapshot())
	s := b.Snapshot()
	if s.SCIterations != 12 || s.TimedOut != 2 || s.Resumed != 3 {
		t.Fatalf("merged counters wrong: %+v", s)
	}
	if s.Failures["timeout"] != 3 || s.Failures["sc-diverged"] != 1 {
		t.Fatalf("merged failure classes wrong: %v", s.Failures)
	}
}

// TestSnapshotJSONGolden pins the Snapshot's JSON — its field names are
// the keys journals and job results carry — and checks that every
// Counter reaches its own field: each counter gets a distinct value, and
// Merge(Snapshot()) must double every one of them.
func TestSnapshotJSONGolden(t *testing.T) {
	var m Metrics
	for c := Counter(0); c < numCounters; c++ {
		m.Add(c, int64(c)+1)
	}
	m.AddFailure("sc-diverged")
	m.AddFailure("timeout")
	m.AddFailure("timeout")
	got, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Samples":1,"SCIterations":2,"LinearSolves":3,"StageEvals":4,"Skipped":5,` +
		`"Degraded":6,"TimedOut":7,"Resumed":8,"BusyNs":9,"SendWaitNs":10,` +
		`"ModelCacheHits":11,"ModelCacheMisses":12,"ModelCacheCorrupt":13,` +
		`"CheckpointBakLoads":14,"CheckpointRenameRetries":15,` +
		`"Failures":{"sc-diverged":1,"timeout":2}}`
	if string(got) != want {
		t.Fatalf("Snapshot JSON moved:\n got %s\nwant %s", got, want)
	}
	m.Merge(m.Snapshot())
	doubled := Snapshot{
		Samples: 2, SCIterations: 4, LinearSolves: 6, StageEvals: 8, Skipped: 10,
		Degraded: 12, TimedOut: 14, Resumed: 16, BusyNs: 18, SendWaitNs: 20,
		ModelCacheHits: 22, ModelCacheMisses: 24, ModelCacheCorrupt: 26,
		CheckpointBakLoads: 28, CheckpointRenameRetries: 30,
		Failures: map[string]int64{"sc-diverged": 2, "timeout": 4},
	}
	if s := m.Snapshot(); !reflect.DeepEqual(s, doubled) {
		t.Fatalf("Merge(Snapshot()) = %+v, want every counter doubled: %+v", s, doubled)
	}
}
