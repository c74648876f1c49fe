package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lcsim/internal/checkpoint"
	"lcsim/internal/device"
	"lcsim/internal/runner"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// sameSummaryBits compares two summaries bit for bit — the resume
// invariant is exact equality of the final statistics, not tolerance.
func sameSummaryBits(a, b stat.Summary) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.N == b.N && a.NonFinite == b.NonFinite &&
		eq(a.Mean, b.Mean) && eq(a.Std, b.Std) && eq(a.Min, b.Min) && eq(a.Max, b.Max) &&
		eq(a.Median, b.Median) && eq(a.P05, b.P05) && eq(a.P95, b.P95)
}

// mcCheckpointCfg is the shared configuration of the resume-invariant
// tests: a skip policy with injected faults, so the checkpoint also has
// to carry the failure report and skip-set across the kill.
func mcCheckpointCfg(p *Path, workers int, keep bool) MCConfig {
	return MCConfig{
		N: 40, Sources: DeviceSources(p.Tech, 0.33, 0.33),
		KeepSamples: keep,
		RunConfig:   RunConfig{Seed: 11, Workers: workers, OnFailure: Skip},
		injectFault: func(i int) error {
			if i%9 == 3 {
				return fmt.Errorf("injected: %w", teta.ErrSCDiverged)
			}
			return nil
		},
	}
}

// interruptedRun runs cfg with checkpointing until roughly cancelAt
// samples have completed and a journal exists, then cancels — standing
// in for a SIGKILL — and returns the checkpoint path. The run must NOT
// have completed.
func interruptedRun(t *testing.T, p *Path, cfg MCConfig, path string, cancelAt int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 5}
	cfg.Progress = cancelOnceJournaled(cancel, path, cancelAt)
	if _, err := p.MonteCarloCtx(ctx, cfg); err == nil {
		t.Fatal("interrupted run unexpectedly completed; cannot exercise resume")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written before the interrupt: %v", err)
	}
}

// cancelOnceJournaled returns a Progress callback that cancels once at
// least cancelAt samples have completed and the journal at path exists.
// Samples complete out of order at several workers, so a completion
// count alone can pass cancelAt before the delivered prefix reaches the
// first flush. Progress runs on the delivery goroutine right after each
// flush, so the cancel lands inside the sweep with a journal on disk.
func cancelOnceJournaled(cancel context.CancelFunc, path string, cancelAt int) func(done, total int) {
	return func(done, total int) {
		if done < cancelAt {
			return
		}
		if _, err := os.Stat(path); err == nil {
			cancel()
		}
	}
}

// TestMCCheckpointResumeBitIdentical is the tentpole invariant: kill a
// streaming MC run mid-sweep, resume it, and the final statistics —
// summary, failure report, skip-set — are bit-identical to an
// uninterrupted run, at one and at several workers (resuming may even
// change the worker count).
func TestMCCheckpointResumeBitIdentical(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref, err := p.MonteCarloCtx(context.Background(), mcCheckpointCfg(p, workers, false))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "mc.ckpt")
			interruptedRun(t, p, mcCheckpointCfg(p, workers, false), path, 15)

			cfg := mcCheckpointCfg(p, workers, false)
			cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 5, Resume: true}
			got, err := p.MonteCarloCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSummaryBits(got.Summary, ref.Summary) {
				t.Fatalf("resumed summary differs from uninterrupted run:\n got %+v\nwant %+v", got.Summary, ref.Summary)
			}
			if !reflect.DeepEqual(got.Failures, ref.Failures) {
				t.Fatalf("resumed failure report differs:\n got %+v\nwant %+v", got.Failures, ref.Failures)
			}
			if got.TotalSC != ref.TotalSC {
				t.Fatalf("TotalSC %d, want %d", got.TotalSC, ref.TotalSC)
			}
		})
	}
}

// TestMCCheckpointResumeKeepSamples checks the per-sample rows survive
// the kill: the resumed KeepSamples run reproduces every delay and every
// sample row bit for bit, including the skip compaction.
func TestMCCheckpointResumeKeepSamples(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)
	ref, err := p.MonteCarloCtx(context.Background(), mcCheckpointCfg(p, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mc.ckpt")
	interruptedRun(t, p, mcCheckpointCfg(p, 4, true), path, 15)

	cfg := mcCheckpointCfg(p, 4, true)
	cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 5, Resume: true}
	got, err := p.MonteCarloCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Delays) != len(ref.Delays) {
		t.Fatalf("%d delays, want %d", len(got.Delays), len(ref.Delays))
	}
	for i := range ref.Delays {
		if math.Float64bits(got.Delays[i]) != math.Float64bits(ref.Delays[i]) {
			t.Fatalf("delay %d differs: %g vs %g", i, got.Delays[i], ref.Delays[i])
		}
	}
	if !reflect.DeepEqual(got.Samples, ref.Samples) {
		t.Fatal("resumed sample rows differ from uninterrupted run")
	}
	if !sameSummaryBits(got.Summary, ref.Summary) {
		t.Fatal("resumed KeepSamples summary differs from uninterrupted run")
	}
}

// TestMCCheckpointFingerprintMismatch checks a snapshot from a different
// run configuration refuses to resume instead of silently mixing
// populations.
func TestMCCheckpointFingerprintMismatch(t *testing.T) {
	p := quickChain(t, []string{"INV"}, 6, false)
	path := filepath.Join(t.TempDir(), "mc.ckpt")
	base := MCConfig{
		N: 6, Sources: DeviceSources(p.Tech, 0.33, 0.33),
		RunConfig: RunConfig{Seed: 3, Checkpoint: &checkpoint.Config{Path: path}},
	}
	if _, err := p.MonteCarloCtx(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*MCConfig){
		"seed":        func(c *MCConfig) { c.Seed = 4 },
		"n":           func(c *MCConfig) { c.N = 7 },
		"sampler":     func(c *MCConfig) { c.Sampler = SamplerHalton },
		"policy":      func(c *MCConfig) { c.OnFailure = Skip },
		"keepsamples": func(c *MCConfig) { c.KeepSamples = true },
		"sources":     func(c *MCConfig) { c.Sources = DeviceSources(p.Tech, 0.5, 0.33) },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			cfg.Checkpoint = &checkpoint.Config{Path: path, Resume: true}
			mutate(&cfg)
			_, err := p.MonteCarloCtx(context.Background(), cfg)
			if err == nil || !errors.Is(err, checkpoint.ErrMismatch) {
				t.Fatalf("mismatched %s resumed anyway: %v", name, err)
			}
		})
	}
}

// TestMCCheckpointCorruptFallsBackToBak corrupts the newest snapshot
// after an interrupted run: resume must detect it (CRC), fall back to the
// previous .bak generation, and still finish bit-identical.
func TestMCCheckpointCorruptFallsBackToBak(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)
	ref, err := p.MonteCarloCtx(context.Background(), mcCheckpointCfg(p, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mc.ckpt")
	interruptedRun(t, p, mcCheckpointCfg(p, 2, false), path, 20)
	if _, err := os.Stat(checkpoint.BakPath(path)); err != nil {
		t.Skipf("interrupt landed before the second flush; no .bak generation to test (%v)", err)
	}
	// Truncate the primary snapshot — a torn write.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := mcCheckpointCfg(p, 2, false)
	cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 5, Resume: true}
	got, err := p.MonteCarloCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSummaryBits(got.Summary, ref.Summary) {
		t.Fatal("resume from .bak generation is not bit-identical to the uninterrupted run")
	}
}

// TestMCCheckpointResumeCompletedRun checks resuming a finished run
// restores the result without evaluating a single sample.
func TestMCCheckpointResumeCompletedRun(t *testing.T) {
	p := quickChain(t, []string{"INV"}, 6, false)
	path := filepath.Join(t.TempDir(), "mc.ckpt")
	cfg := MCConfig{
		N: 5, Sources: DeviceSources(p.Tech, 0.33, 0.33),
		RunConfig: RunConfig{Seed: 9, Checkpoint: &checkpoint.Config{Path: path}},
	}
	ref, err := p.MonteCarloCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	cfg.Checkpoint = &checkpoint.Config{Path: path, Resume: true}
	cfg.injectFault = func(int) error { evals++; return nil }
	m := &runner.Metrics{}
	cfg.Metrics = m
	got, err := p.MonteCarloCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 0 {
		t.Fatalf("resume of a completed run evaluated %d samples", evals)
	}
	if !sameSummaryBits(got.Summary, ref.Summary) {
		t.Fatal("restored completed-run summary differs")
	}
	if s := m.Snapshot(); s.Resumed != 5 {
		t.Fatalf("Resumed counter = %d, want 5", s.Resumed)
	}
}

// TestMCCheckpointResumeWithoutSnapshot checks Resume on a path that was
// never checkpointed starts cleanly from sample 0 (first run of a
// crash-safe loop).
func TestMCCheckpointResumeWithoutSnapshot(t *testing.T) {
	p := quickChain(t, []string{"INV"}, 6, false)
	path := filepath.Join(t.TempDir(), "never-written.ckpt")
	ref, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N: 4, Sources: DeviceSources(p.Tech, 0.33, 0.33),
		RunConfig: RunConfig{Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.MonteCarloCtx(context.Background(), MCConfig{
		N: 4, Sources: DeviceSources(p.Tech, 0.33, 0.33),
		RunConfig: RunConfig{
			Seed:       2,
			Checkpoint: &checkpoint.Config{Path: path, Resume: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSummaryBits(got.Summary, ref.Summary) {
		t.Fatal("fresh resume run differs from plain run")
	}
}

// TestSkewCheckpointResumeBitIdentical mirrors the kill/resume invariant
// for the skew driver: arrivals, skews and summaries all bit-identical.
func TestSkewCheckpointResumeBitIdentical(t *testing.T) {
	a := quickChain(t, []string{"BUF"}, 10, true)
	b := quickChain(t, []string{"BUF"}, 10, true)
	pp := &PathPair{
		A: a, B: b,
		Shared:       UniformWireSources(),
		IndependentA: DeviceSources(device.Tech180, 0.33, 0),
		IndependentB: DeviceSources(device.Tech180, 0.33, 0),
	}
	cfg := func() SkewConfig {
		return SkewConfig{N: 16, RunConfig: RunConfig{Seed: 5, Workers: 4}}
	}
	ref, err := pp.MonteCarloSkewCtx(context.Background(), cfg())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "skew.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ic := cfg()
	ic.Checkpoint = &checkpoint.Config{Path: path, Every: 3}
	ic.Progress = cancelOnceJournaled(cancel, path, 6)
	if _, err := pp.MonteCarloSkewCtx(ctx, ic); err == nil {
		t.Fatal("interrupted skew run unexpectedly completed")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no skew checkpoint written: %v", err)
	}

	rc := cfg()
	rc.Workers = 1 // resume at a different worker count on purpose
	rc.Checkpoint = &checkpoint.Config{Path: path, Every: 3, Resume: true}
	got, err := pp.MonteCarloSkewCtx(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Skews, ref.Skews) {
		t.Fatalf("resumed skews differ:\n got %v\nwant %v", got.Skews, ref.Skews)
	}
	if !sameSummaryBits(got.Skew, ref.Skew) || !sameSummaryBits(got.ArrivalA, ref.ArrivalA) || !sameSummaryBits(got.ArrivalB, ref.ArrivalB) {
		t.Fatal("resumed skew summaries differ from uninterrupted run")
	}
}
