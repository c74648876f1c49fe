package jobd

import (
	"context"
	"os"
	"testing"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/faultinj"
	"lcsim/internal/job"
	"lcsim/internal/modelcache"
)

// TestChaosMatrixKillRestart is the tentpole acceptance test: with a
// seeded fault schedule armed across every durable layer (checkpoint
// journal, queue records/results, model cache) plus scripted engine
// failures, a daemon that is repeatedly killed and restarted must still
// complete every accepted job, and every result must be bit-identical to
// a clean direct run.
//
// "Killed" here is an in-process drain with a hard wall-clock cut: the
// supervisor's context expires mid-shard, attempts unwind (or are
// abandoned), and the next iteration opens a brand-new supervisor and
// model-cache handle over the same directories — the restart path, minus
// fork/exec. scripts/daemon_smoke.sh covers the literal `kill -9`.
//
// The schedule's budget guarantees convergence: once it is spent, the
// chaos goes quiet, so the retry/requeue machinery always has a clean
// tail to finish in. MaxAttempts is set above the budget so transient
// faults can never legitimately exhaust a job's retry allowance.
func TestChaosMatrixKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is a multi-second soak")
	}

	sched := faultinj.NewSchedule(7).
		Rule(faultinj.OpWrite, faultinj.KindTorn, 0.05).
		Rule(faultinj.OpWrite, faultinj.KindENOSPC, 0.02).
		Rule(faultinj.OpSync, faultinj.KindErr, 0.04).
		Rule(faultinj.OpRename, faultinj.KindErr, 0.04).
		Rule(faultinj.OpRead, faultinj.KindCorrupt, 0.03).
		Rule(faultinj.OpEngine, faultinj.KindFail, 0.01).
		SetBudget(50)
	injected := faultinj.Inject(faultinj.OS{}, sched)

	prevFS := checkpoint.SetFS(injected)
	defer checkpoint.SetFS(prevFS)
	restoreChaos := InstallChaos(sched)
	defer restoreChaos()

	q, err := OpenQueue(t.TempDir(), injected)
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()

	specs := []*job.Spec{pathSpec(t, 21, 48), pathSpec(t, 22, 48), pathSpec(t, 23, 48)}
	var ids []string
	for _, sp := range specs {
		id, err := q.Enqueue(sp)
		if err != nil {
			t.Fatalf("Enqueue under chaos: %v", err)
		}
		ids = append(ids, id)
	}

	allDone := func() bool {
		for _, id := range ids {
			st, err := q.State(id)
			if err != nil {
				t.Fatalf("State: %v", err)
			}
			if st.Status == StatusFailed {
				t.Fatalf("job %s failed under chaos: %s", id, st.Error)
			}
			if st.Status != StatusDone {
				return false
			}
		}
		return true
	}

	// Kill/restart matrix: each iteration is one daemon lifetime with a
	// different wall-clock cut, so the kills land at different points of
	// the shard chains.
	lifetimes := []time.Duration{
		200 * time.Millisecond, 350 * time.Millisecond, 500 * time.Millisecond,
		275 * time.Millisecond, 425 * time.Millisecond,
	}
	deadline := time.Now().Add(300 * time.Second)
	for i := 0; !allDone(); i++ {
		if time.Now().After(deadline) {
			t.Fatal("chaos matrix did not converge before deadline")
		}
		// A restarted daemon reopens everything: fresh supervisor, fresh
		// model-cache handle, same directories.
		cache, err := modelcache.OpenFS(cacheDir, injected)
		if err != nil {
			t.Fatalf("reopen cache: %v", err)
		}
		s, err := New(Config{
			Queue: q, Jobs: 2, ShardSamples: 8, Every: 1,
			MaxAttempts: 60, BackoffBase: 5 * time.Millisecond, BackoffCap: 50 * time.Millisecond,
			Poll: 10 * time.Millisecond, Heartbeat: -1, DrainGrace: 2 * time.Second,
			MacroCache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), lifetimes[i%len(lifetimes)])
		err = s.Run(ctx)
		cancel()
		if err != nil {
			t.Fatalf("supervisor lifetime %d: %v", i, err)
		}
	}

	// Chaos over: lift every shim, then compare each daemon result to a
	// clean direct run. The direct runs share one fresh cache over a new
	// directory so they cannot touch any chaos-era artifact.
	checkpoint.SetFS(prevFS)
	restoreChaos()
	cleanCache, err := modelcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Reopen the queue without the injection shim: the durable bytes are
	// what the restarted, healthy daemon would serve.
	cleanQ, err := OpenQueue(q.Root(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got, err := cleanQ.Result(id)
		if err != nil {
			t.Fatalf("Result(%s) after chaos: %v", id, err)
		}
		assertSameRun(t, got, directResult(t, specs[i], cleanCache))
	}
}

// TestCorruptJournalRestartsFromZero pins the chaos-matrix flake: a job
// whose journal has no readable generation (two torn saves in a row that
// both reported success) must not burn its retries failing the same way.
// The daemon drops the journal and restarts the job from sample 0 — safe
// because the journal is a prefix cut of a deterministic stream — so the
// result is bit-identical to a direct run.
func TestCorruptJournalRestartsFromZero(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := modelcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := pathSpec(t, 31, 24)
	id, err := q.Enqueue(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{q.JournalPath(id), checkpoint.BakPath(q.JournalPath(id))} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	logs := &testLog{}
	stop := startSupervisor(t, Config{
		Queue: q, Jobs: 1, ShardSamples: 8, Every: 4, MaxAttempts: 3,
		Poll: 10 * time.Millisecond, Heartbeat: -1, MacroCache: cache, Logf: logs.logf,
	})
	defer stop()
	waitStatus(t, q, id, StatusDone, 120*time.Second)
	stop()
	if !logs.contains("journal unreadable, restarting from sample 0") {
		t.Fatalf("no journal-restart event logged: %q", logs.lines)
	}
	got, err := q.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, got, directResult(t, spec, cache))
}
