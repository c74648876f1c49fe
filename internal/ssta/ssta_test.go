package ssta

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/iscas"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

func s27Mapped(t *testing.T) *iscas.Circuit {
	t.Helper()
	c, err := iscas.S27().TechMap()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testConfig keeps characterization cheap: short wires, mild device
// variations (GA's first-order accuracy degrades with σ, per Table 5).
func testConfig(workers int) Config {
	return Config{
		RunConfig: core.RunConfig{Seed: 7, Workers: workers},
		Sources:   core.DeviceSources(device.Tech180, 0.33, 0.33),
		Elems:     4,
	}
}

func TestPartitionS27(t *testing.T) {
	g, err := Partition(s27Mapped(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 8 {
		t.Fatalf("s27 partitions into %d blocks, want 8", len(g.Blocks))
	}
	if d := len(g.DistinctKeys()); d != 6 {
		t.Fatalf("s27 has %d distinct block keys, want 6", d)
	}
	sinks := map[string]bool{}
	for _, bi := range g.SinkBlocks {
		sinks[g.Blocks[bi].Output] = true
	}
	for _, want := range []string{"G10", "G11", "G13", "G17"} {
		if !sinks[want] {
			t.Fatalf("sink %s missing (got %v)", want, sinks)
		}
	}
	if len(sinks) != 4 {
		t.Fatalf("s27 has %d sinks, want 4", len(sinks))
	}
	// The fan-out-free invariant: a non-tail gate's output feeds exactly
	// one pin, inside its own block.
	for _, b := range g.Blocks {
		for k := 0; k+1 < len(b.Gates); k++ {
			out := b.Gates[k].Gate.Output
			if c := fanInCount(g.Circuit, out); c != 1 {
				t.Fatalf("block %d interior net %s has fan-out %d, want 1", b.ID, out, c)
			}
		}
	}
	// Every entry net is a source or an *earlier* block's output.
	produced := map[string]int{}
	for _, b := range g.Blocks {
		for _, e := range b.Entries {
			if g.Sources[e.Net] {
				continue
			}
			pid, ok := produced[e.Net]
			if !ok {
				t.Fatalf("block %d entry %s is neither a source nor a prior block output", b.ID, e.Net)
			}
			if pid >= b.ID {
				t.Fatalf("block %d entry %s produced by later block %d", b.ID, e.Net, pid)
			}
		}
		produced[b.Output] = b.ID
	}
}

func fanInCount(c *iscas.Circuit, net string) int {
	n := 0
	for _, g := range c.Gates {
		for _, in := range g.Inputs {
			if in == net {
				n++
			}
		}
	}
	return n
}

// The headline acceptance criterion: SSTA mean and σ at every s27 sink
// within 5% of the brute-force per-block Monte-Carlo reference, with
// block characterization running once per distinct cell chain.
func TestS27AgainstBruteForceMC(t *testing.T) {
	c := s27Mapped(t)
	cfg := testConfig(-1)
	res, err := Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Blocks != 8 || res.Stats.Distinct != 6 || res.Stats.CacheHits != 2 {
		t.Fatalf("characterization stats %+v, want 8 blocks / 6 distinct / 2 cache hits", res.Stats)
	}
	if res.Stats.CacheHits != res.Stats.Blocks-res.Stats.Distinct {
		t.Fatalf("cache hits %d != blocks %d - distinct %d", res.Stats.CacheHits, res.Stats.Blocks, res.Stats.Distinct)
	}
	mc, err := RunMC(context.Background(), c, cfg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sinks) != 4 || len(mc.Sinks) != 4 {
		t.Fatalf("sink counts: ssta %d, mc %d, want 4", len(res.Sinks), len(mc.Sinks))
	}
	const tol = 0.05
	for _, s := range res.Sinks {
		ref, ok := mc.SinkSummary(s.Net)
		if !ok {
			t.Fatalf("MC reference has no sink %s", s.Net)
		}
		if rel := math.Abs(s.Mean-ref.Mean) / ref.Mean; rel > tol {
			t.Errorf("sink %s mean: ssta %g vs mc %g (%.1f%% > 5%%)", s.Net, s.Mean, ref.Mean, 100*rel)
		}
		if rel := math.Abs(s.Std-ref.Std) / ref.Std; rel > tol {
			t.Errorf("sink %s std: ssta %g vs mc %g (%.1f%% > 5%%)", s.Net, s.Std, ref.Std, 100*rel)
		}
	}
	// Chip-level distribution agrees too, and the critical sink is the
	// deepest path's endpoint.
	if rel := math.Abs(res.Chip.Mean-mc.Chip.Mean) / mc.Chip.Mean; rel > tol {
		t.Errorf("chip mean off by %.1f%%", 100*rel)
	}
	if res.CriticalSink != "G10" && res.CriticalSink != "G17" {
		t.Errorf("critical sink %s, want the depth-6 endpoint G10 or G17", res.CriticalSink)
	}
}

// Acceptance criterion: results bit-identical across worker counts.
func TestWorkerCountBitInvariance(t *testing.T) {
	c := s27Mapped(t)
	run := func(workers int) (*Result, *MCResult) {
		cfg := testConfig(workers)
		r, err := Run(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := RunMC(context.Background(), c, cfg, 400)
		if err != nil {
			t.Fatal(err)
		}
		return r, m
	}
	r1, m1 := run(1)
	r4, m4 := run(4)
	for i := range r1.Sinks {
		a, b := r1.Sinks[i], r4.Sinks[i]
		if a.Net != b.Net || a.Mean != b.Mean || a.Std != b.Std {
			t.Fatalf("SSTA sink %d differs across worker counts: %+v vs %+v", i, a, b)
		}
	}
	if r1.Chip != r4.Chip || r1.CriticalSink != r4.CriticalSink {
		t.Fatalf("SSTA chip result differs across worker counts")
	}
	for i := range m1.Sinks {
		a, b := m1.Sinks[i].Summary, m4.Sinks[i].Summary
		if a.Mean != b.Mean || a.Std != b.Std || a.Median != b.Median || a.P95 != b.P95 {
			t.Fatalf("MC sink %s differs across worker counts:\n1: %+v\n4: %+v", m1.Sinks[i].Net, a, b)
		}
	}
	if m1.Chip.Mean != m4.Chip.Mean || m1.Chip.Std != m4.Chip.Std {
		t.Fatalf("MC chip summary differs across worker counts")
	}
}

// A generated sequential benchmark: partition covers every gate exactly
// once, SSTA runs end to end, and the mean arrival at every sink tracks
// the MC reference.
func TestGeneratedBenchmark(t *testing.T) {
	b, ok := iscas.Lookup("s208")
	if !ok {
		t.Fatal("s208 not in the benchmark tables")
	}
	c, err := iscas.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Partition(c)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, blk := range g.Blocks {
		covered += len(blk.Gates)
	}
	if covered != len(c.Gates) {
		t.Fatalf("partition covers %d of %d gates", covered, len(c.Gates))
	}
	cfg := testConfig(-1)
	res, err := Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := RunMC(context.Background(), c, cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sinks {
		ref, ok := mc.SinkSummary(s.Net)
		if !ok {
			t.Fatalf("MC has no sink %s", s.Net)
		}
		if rel := math.Abs(s.Mean-ref.Mean) / ref.Mean; rel > 0.05 {
			t.Errorf("sink %s mean off by %.1f%%", s.Net, 100*rel)
		}
	}
	// The critical sink is the 9-stage main chain's D pin.
	if res.CriticalSink != "d0" {
		t.Errorf("critical sink %s, want d0 (the main chain)", res.CriticalSink)
	}
}

func TestBudgetYieldAndSlack(t *testing.T) {
	c := s27Mapped(t)
	cfg := testConfig(0)
	base, err := Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A budget 3σ above the chip mean: yield ≈ Φ(3), slack positive.
	cfg.Budget = base.Chip.Mean + 3*base.Chip.Std
	res, err := Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chip.Slack <= 0 {
		t.Fatalf("slack %g, want positive", res.Chip.Slack)
	}
	if res.Chip.Yield < 0.95 || res.Chip.Yield > 1 {
		t.Fatalf("chip yield %g at a 3σ budget, want ≈0.9987", res.Chip.Yield)
	}
	for _, s := range res.Sinks {
		if s.Yield < res.Chip.Yield-1e-9 {
			t.Fatalf("sink %s yield %g below chip yield %g", s.Net, s.Yield, res.Chip.Yield)
		}
	}
}

func TestMCCheckpointResume(t *testing.T) {
	c := s27Mapped(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ssta.ckpt")

	cfg := testConfig(2)
	cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 16}
	first, err := RunMC(context.Background(), c, cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	// Resuming a completed run restores the final snapshot and evaluates
	// nothing new; the result must be bit-identical.
	cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 16, Resume: true}
	resumed, err := RunMC(context.Background(), c, cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Sinks {
		a, b := first.Sinks[i].Summary, resumed.Sinks[i].Summary
		if a.Mean != b.Mean || a.Std != b.Std {
			t.Fatalf("sink %s differs after resume", first.Sinks[i].Net)
		}
	}
	// A changed seed refuses to resume.
	bad := cfg
	bad.Seed = 8
	bad.Checkpoint = &checkpoint.Config{Path: path, Resume: true}
	if _, err := RunMC(context.Background(), c, bad, 120); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("want ErrMismatch on seed change, got %v", err)
	}
}

// hangEngine blocks every path evaluation until release is closed: the
// hung block the watchdog exists for.
type hangEngine struct {
	core.Engine
	release <-chan struct{}
}

func (h hangEngine) EvalPath(any, teta.RunSpec) (*core.PathEval, error) {
	<-h.release
	return nil, errors.New("hang released")
}

// installHang wraps every engine resolved from now until test cleanup in
// a hangEngine (through core.SetEngineWrapper, the way jobd.InstallChaos
// installs its chaos engine). Characterization is unaffected: it
// evaluates stages, not paths.
func installHang(t *testing.T) {
	t.Helper()
	release := make(chan struct{})
	prev := core.SetEngineWrapper(func(e core.Engine) core.Engine { return hangEngine{e, release} })
	t.Cleanup(func() {
		core.SetEngineWrapper(prev)
		close(release)
	})
}

func TestSampleTimeoutSkips(t *testing.T) {
	c := s27Mapped(t)
	installHang(t)
	m := &runner.Metrics{}
	cfg := testConfig(2)
	cfg.OnFailure = core.Skip
	cfg.SampleTimeout = 20 * time.Millisecond // every sample hangs, so the watchdog always wins
	cfg.Metrics = m
	mc, err := RunMC(context.Background(), c, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Failures.Skipped != 8 {
		t.Fatalf("skipped %d of 8, want all", mc.Failures.Skipped)
	}
	if len(mc.Failures.Classes) == 0 || mc.Failures.Classes[0].Class != core.FailTimeout {
		t.Fatalf("failure classes %+v, want timeout", mc.Failures.Classes)
	}
	if mc.Chip.N != 0 {
		t.Fatalf("chip summary has %d samples, want 0", mc.Chip.N)
	}
	if got := m.Snapshot().TimedOut; got != 8 {
		t.Fatalf("Metrics.TimedOut = %d, want 8", got)
	}
}

func TestClarkMaxClosedForm(t *testing.T) {
	// Two independent standard normals: E[max] = 1/√π, Var[max] = 1 − 1/π.
	a := Arrival{Mean: 0, Sens: []float64{1, 0}}
	b := Arrival{Mean: 0, Sens: []float64{0, 1}}
	m := statMax(a, b)
	if math.Abs(m.Mean-1/math.Sqrt(math.Pi)) > 1e-12 {
		t.Fatalf("E[max] = %g, want 1/√π = %g", m.Mean, 1/math.Sqrt(math.Pi))
	}
	wantVar := 1 - 1/math.Pi
	if math.Abs(m.Var()-wantVar) > 1e-12 {
		t.Fatalf("Var[max] = %g, want %g", m.Var(), wantVar)
	}
	// Perfectly correlated arrivals: max is the larger mean, unchanged.
	x := Arrival{Mean: 2, Sens: []float64{1, 1}}
	y := Arrival{Mean: 1, Sens: []float64{1, 1}}
	if got := statMax(x, y); got.Mean != 2 || got.Var() != x.Var() {
		t.Fatalf("correlated max %+v, want the larger operand unchanged", got)
	}
	// Degenerate tie keeps the first operand (deterministic fold order).
	if got := statMax(y, Arrival{Mean: 1, Sens: []float64{1, 1}}); got.Mean != 1 {
		t.Fatalf("tie broke to %+v", got)
	}
	// Clark's mean dominates both operands' means.
	p := Arrival{Mean: 5, Sens: []float64{0.5, 0}}
	q := Arrival{Mean: 4.9, Sens: []float64{0, 0.7}}
	if m := statMax(p, q); m.Mean < 5 || m.Mean < 4.9 {
		t.Fatalf("max mean %g below operands", m.Mean)
	}
}

// TestMCFingerprintStrings pins the strings an ssta-mc journal's
// fingerprint carries for the s27 test run: a change to how the sources
// or the block partition are hashed, or to the default engine's name,
// would refuse every journal written before it.
func TestMCFingerprintStrings(t *testing.T) {
	c := s27Mapped(t)
	g, err := Partition(c)
	if err != nil {
		t.Fatal(err)
	}
	fp := mcFingerprint(c, g, testConfig(2), 120)
	for _, f := range []struct{ name, got, want string }{
		{"Engine", fp.Engine, core.EngineTetaFast},
		{"Sources", fp.Sources, "4c40246423d3b2a2"},
		{"Proposal", fp.Proposal, "circuit=s27 blocks=73b0b2435dff1dc9"},
	} {
		if f.got != f.want {
			t.Errorf("fingerprint %s = %q, want %q", f.name, f.got, f.want)
		}
	}
}
