package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"lcsim/internal/circuit"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// hangEngine is a registrable test engine whose EvalPath blocks until
// release is closed — the "pathological Newton loop" the watchdog
// exists for.
type hangEngine struct {
	name    string
	release chan struct{}
}

func (h *hangEngine) Name() string    { return h.name }
func (h *hangEngine) Cost() int       { return 1 }
func (h *hangEngine) NewScratch() any { return nil }
func (h *hangEngine) EvalStage(any, int, teta.RunSpec, circuit.Waveform, bool) (StageDelayResult, *circuit.PWL, error) {
	return StageDelayResult{}, nil, fmt.Errorf("hangEngine has no stage evaluation")
}
func (h *hangEngine) EvalPath(any, teta.RunSpec) (*PathEval, error) {
	<-h.release
	return nil, fmt.Errorf("hang released")
}

// registerHangEngine registers a blocking engine for exactly one test
// path and arranges for its abandoned goroutines to unblock at test end.
func registerHangEngine(t *testing.T, name string, p *Path) {
	t.Helper()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	RegisterEngine(name, 1, false, func(pp *Path) (Engine, error) {
		if pp != p {
			return nil, fmt.Errorf("%s serves only its own test path", name)
		}
		return &hangEngine{name: name, release: release}, nil
	})
}

// replayEngine wraps teta-exact for one test path. With record set it
// evaluates through teta-exact and keeps each sample's result; otherwise
// it returns the kept result at once, so as a degrade rung it always
// answers well inside the watchdog deadline, however slow the host (or
// the race detector) makes teta-exact itself.
type replayEngine struct {
	Engine
	name   string
	record bool
	memo   *sync.Map // sample key → PathEval
}

func (e replayEngine) Name() string { return e.name }

func (e replayEngine) EvalPath(sc any, rs teta.RunSpec) (*PathEval, error) {
	key := fmt.Sprint(rs.W, rs.DL, rs.DVT)
	if !e.record {
		ev, ok := e.memo.Load(key)
		if !ok {
			return nil, fmt.Errorf("%s: no recorded result for sample %s", e.name, key)
		}
		out := ev.(PathEval)
		return &out, nil
	}
	ev, err := e.Engine.EvalPath(sc, rs)
	if err == nil {
		e.memo.Store(key, *ev)
	}
	return ev, err
}

// registerReplayEngines registers the recording and the replaying side
// of one teta-exact memo for exactly one test path.
func registerReplayEngines(p *Path, record, replay string) {
	memo := &sync.Map{}
	for _, name := range []string{record, replay} {
		RegisterEngine(name, 1, false, func(pp *Path) (Engine, error) {
			if pp != p {
				return nil, fmt.Errorf("%s serves only its own test path", name)
			}
			exact, err := pp.Engine(EngineTetaExact)
			return replayEngine{Engine: exact, name: name, record: name == record, memo: memo}, err
		})
	}
}

// TestSampleTimeoutDegradesToNextRung is the satellite watchdog/ladder
// test: a rung that blocks forever must degrade to the next rung
// deterministically at any worker count, with FailTimeout in the cause
// chain (here observed through the Degraded recovery and the timeout
// metrics; the skip/fail-fast variants below check the chain itself).
// The rung replays the reference run's teta-exact results, so only the
// hung primary can meet the deadline.
func TestSampleTimeoutDegradesToNextRung(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)
	registerHangEngine(t, "test-hang-degrade", p)
	registerReplayEngines(p, "test-exact-record", "test-exact-replay")

	const n = 6
	sources := DeviceSources(p.Tech, 0.33, 0.33)
	ref, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N: n, Sources: sources, KeepSamples: true,
		RunConfig: RunConfig{Seed: 13, Engine: "test-exact-record"},
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := &runner.Metrics{}
			got, err := p.MonteCarloCtx(context.Background(), MCConfig{
				N: n, Sources: sources, KeepSamples: true,
				RunConfig: RunConfig{
					Seed: 13, Workers: workers,
					Engine: "test-hang-degrade", OnFailure: Degrade, Ladder: []string{"test-exact-replay"},
					SampleTimeout: 30 * time.Millisecond, Metrics: m,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Every sample timed out on the hung primary and recovered
			// through the rung — bit-identical to the teta-exact
			// reference run.
			if got.Failures.Degraded != n || got.Failures.Skipped != 0 {
				t.Fatalf("degraded=%d skipped=%d, want %d/0", got.Failures.Degraded, got.Failures.Skipped, n)
			}
			for i := range ref.Delays {
				if math.Float64bits(got.Delays[i]) != math.Float64bits(ref.Delays[i]) {
					t.Fatalf("delay %d differs from the rung's engine: %g vs %g", i, got.Delays[i], ref.Delays[i])
				}
			}
			if s := m.Snapshot(); s.TimedOut != n {
				t.Fatalf("TimedOut = %d, want %d", s.TimedOut, n)
			}
		})
	}
}

// TestSampleTimeoutSkipCannotStallSweep checks the acceptance criterion:
// with every sample hung and a Skip policy the sweep still completes —
// within one deadline per sample, not never — and the failures classify
// as FailTimeout.
func TestSampleTimeoutSkipCannotStallSweep(t *testing.T) {
	p := quickChain(t, []string{"INV"}, 6, false)
	registerHangEngine(t, "test-hang-skip", p)

	const n = 8
	start := time.Now()
	got, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N: n, Sources: DeviceSources(p.Tech, 0.33, 0.33),
		RunConfig: RunConfig{
			Seed: 1, Workers: 4,
			Engine: "test-hang-skip", OnFailure: Skip, SampleTimeout: 25 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hung sweep took %v; the watchdog is not bounding samples", elapsed)
	}
	if got.Failures.Skipped != n {
		t.Fatalf("skipped=%d, want %d", got.Failures.Skipped, n)
	}
	if len(got.Failures.Classes) != 1 || got.Failures.Classes[0].Class != FailTimeout {
		t.Fatalf("failure classes = %+v, want a single %s class", got.Failures.Classes, FailTimeout)
	}
	if got.Summary.N != 0 {
		t.Fatalf("summary aggregated %d samples from an all-hung run", got.Summary.N)
	}
}

// TestSampleTimeoutFailFastCauseChain checks the timeout surfaces as a
// typed per-sample error: ErrSampleTimeout in the chain, classified
// FailTimeout.
func TestSampleTimeoutFailFastCauseChain(t *testing.T) {
	p := quickChain(t, []string{"INV"}, 6, false)
	registerHangEngine(t, "test-hang-failfast", p)

	_, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N: 3, Sources: DeviceSources(p.Tech, 0.33, 0.33),
		RunConfig: RunConfig{
			Seed: 1, Engine: "test-hang-failfast", SampleTimeout: 25 * time.Millisecond,
		},
	})
	if err == nil || !errors.Is(err, ErrSampleTimeout) {
		t.Fatalf("want ErrSampleTimeout in the chain, got %v", err)
	}
	var se *SampleError
	if !errors.As(err, &se) || se.Class != FailTimeout {
		t.Fatalf("want a SampleError classified %s, got %v", FailTimeout, err)
	}
}

// TestSampleTimeoutUntriggered checks a generous deadline changes
// nothing: results stay bit-identical to an unwatched run (the watchdog
// goroutine hop must not perturb determinism).
func TestSampleTimeoutUntriggered(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)
	sources := DeviceSources(p.Tech, 0.33, 0.33)
	ref, err := p.MonteCarloCtx(context.Background(), MCConfig{N: 6, Sources: sources, KeepSamples: true, RunConfig: RunConfig{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N: 6, Sources: sources, KeepSamples: true,
		RunConfig: RunConfig{Seed: 4, Workers: 3, SampleTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Delays {
		if math.Float64bits(got.Delays[i]) != math.Float64bits(ref.Delays[i]) {
			t.Fatalf("delay %d differs under an untriggered watchdog", i)
		}
	}
}

// TestSkewSampleTimeout checks the watchdog bounds branch evaluations in
// the skew driver too.
func TestSkewSampleTimeout(t *testing.T) {
	a := quickChain(t, []string{"BUF"}, 10, true)
	b := quickChain(t, []string{"BUF"}, 10, true)
	// Registered without a path guard: the same entry must serve both
	// branches.
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	RegisterEngine("test-hang-skew", 1, false, func(pp *Path) (Engine, error) {
		return &hangEngine{name: "test-hang-skew", release: release}, nil
	})

	pp := &PathPair{
		A: a, B: b,
		Shared: UniformWireSources(),
	}
	res, err := pp.MonteCarloSkewCtx(context.Background(), SkewConfig{
		N: 4,
		RunConfig: RunConfig{
			Seed: 2, Workers: 2,
			Engine: "test-hang-skew", OnFailure: Skip, SampleTimeout: 25 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures.Skipped != 4 {
		t.Fatalf("skipped=%d, want 4", res.Failures.Skipped)
	}
	if len(res.Failures.Classes) != 1 || res.Failures.Classes[0].Class != FailTimeout {
		t.Fatalf("failure classes = %+v, want a single %s class", res.Failures.Classes, FailTimeout)
	}
}
