package job

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/faultinj"
	"lcsim/internal/iscas"
	"lcsim/internal/mat"
	"lcsim/internal/runner"
	"lcsim/internal/ssta"
	"lcsim/internal/teta"
)

// This file drives every statistical driver — path MC, correlated MC, IS
// yield, skew and ssta.RunMC — through the per-sample policies of
// core.Sweep: cancellation, the watchdog, skip, degrade, kill/resume and
// a seeded fault schedule. The package sits above all of them, so one
// table covers them all.

// sweepFaults scripts the test backends for one test: "test-hang"
// blocks every evaluation, "test-faulty" fails the samples fail selects
// and evaluates the rest through teta-fast.
type sweepFaults struct {
	release chan struct{} // closed at test cleanup: hung evaluations return
	entered chan struct{} // signaled when an evaluation starts hanging
	fail    func(rs teta.RunSpec) bool
	failed  atomic.Int64
}

// curFaults is the script of the running test; engines bind to it when
// a driver resolves them.
var curFaults atomic.Pointer[sweepFaults]

// useFaults installs a fresh script (no failures) for the rest of the
// test.
func useFaults(t *testing.T) *sweepFaults {
	f := &sweepFaults{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	curFaults.Store(f)
	t.Cleanup(func() { close(f.release) })
	return f
}

// hang blocks like a wedged Newton loop until the test ends. The 5 s cap
// turns a missing watchdog into a failed assertion instead of a stalled
// suite.
func (f *sweepFaults) hang() error {
	select {
	case f.entered <- struct{}{}:
	default:
	}
	select {
	case <-f.release:
	case <-time.After(5 * time.Second):
	}
	return errors.New("hang released")
}

// check runs the scripted failure.
func (f *sweepFaults) check(rs teta.RunSpec) error {
	if f.fail != nil && f.fail(rs) {
		f.failed.Add(1)
		return fmt.Errorf("test-faulty: %w", teta.ErrSCDiverged)
	}
	return nil
}

// flaky selects roughly a third of the samples from the sample values
// alone, so the failing set is the same at any worker count.
func flaky(rs teta.RunSpec) bool {
	keys := make([]string, 0, len(rs.W))
	for k := range rs.W {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := rs.DL + rs.DVT
	for _, k := range keys {
		h += rs.W[k]
	}
	return math.Float64bits(h)%3 == 0
}

// testEngine is a registry backend scripted by the running test's
// sweepFaults; stage evaluation (GA, characterization) stays teta-fast.
type testEngine struct {
	core.Engine
	name string
	f    *sweepFaults
}

func (e testEngine) Name() string { return e.name }

func (e testEngine) EvalPath(sc any, rs teta.RunSpec) (*core.PathEval, error) {
	if e.name == "test-hang" {
		return nil, e.f.hang()
	}
	if err := e.f.check(rs); err != nil {
		return nil, err
	}
	return e.Engine.EvalPath(sc, rs)
}

// memStore is an in-process macromodel store: repeated ssta runs load
// their block macromodels instead of re-extracting them.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (s *memStore) GetOrCompute(key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if data, ok := s.m[key]; ok {
		return data, true, nil
	}
	data, err := compute()
	if err == nil {
		s.m[key] = data
	}
	return data, false, err
}

// sweepFixture holds the circuits every row reuses (built once per
// process, so repeated -count runs stay cheap).
type sweepFixture struct {
	path  *core.Path
	pair  *core.PathPair
	corr  *core.CorrelatedSources
	ga    *core.GAResult
	s27   *iscas.Circuit
	store *memStore
}

var (
	fixtureOnce sync.Once
	fixture     sweepFixture
	fixtureErr  error
)

func sweepFixtures(t *testing.T) *sweepFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		for _, name := range []string{"test-hang", "test-faulty"} {
			core.RegisterEngine(name, 1, false, func(p *core.Path) (core.Engine, error) {
				base, err := p.Engine(core.EngineTetaFast)
				return testEngine{Engine: base, name: name, f: curFaults.Load()}, err
			})
		}
		fx := &fixture
		if fx.path, fixtureErr = core.BuildChain(core.ChainSpec{
			Cells: []string{"INV", "INV"}, Drive: 2, ElemsBetween: 4, WireLengthUm: 60,
			Variational: true, Tech: device.Tech180, DT: 4e-12, TStop: 1.6e-9, Order: 4,
		}); fixtureErr != nil {
			return
		}
		dev := core.DeviceSources(device.Tech180, 0.33, 0.33)
		fx.pair = &core.PathPair{A: fx.path, B: fx.path, Shared: core.WireSources(0.33), IndependentA: dev, IndependentB: dev}
		cov := mat.NewDense(2, 2)
		for i := range dev {
			for j := range dev {
				rho := 1.0
				if i != j {
					rho = 0.5
				}
				cov.Set(i, j, rho*dev[i].Sigma*dev[j].Sigma)
			}
		}
		if fx.corr, fixtureErr = core.NewCorrelatedSources(dev, cov, 0.99); fixtureErr != nil {
			return
		}
		if fx.ga, fixtureErr = fx.path.GradientAnalysis(core.GAConfig{Sources: dev}); fixtureErr != nil {
			return
		}
		if fx.s27, fixtureErr = iscas.S27().TechMap(); fixtureErr != nil {
			return
		}
		fx.store = &memStore{m: map[string][]byte{}}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return &fixture
}

// sweepDriver adapts one driver to the policy table: run executes it
// under rc and renders its statistics (digest, compared bit for bit) and
// failure report.
type sweepDriver struct {
	name      string
	samples   int  // sample evaluations per run
	degrade   bool // the driver has a Degrade ladder
	shardable bool // kill/resume by Checkpoint.Limit legs, else cancel-then-resume
	run       func(ctx context.Context, rc core.RunConfig) (string, core.FailureReport, error)
}

func sweepDrivers(fx *sweepFixture) []sweepDriver {
	dev := core.DeviceSources(device.Tech180, 0.33, 0.33)
	return []sweepDriver{
		{name: "mc", samples: 12, degrade: true, shardable: true,
			run: func(ctx context.Context, rc core.RunConfig) (string, core.FailureReport, error) {
				r, err := fx.path.MonteCarloCtx(ctx, core.MCConfig{RunConfig: rc, N: 12, Sources: dev})
				if err != nil {
					return "", core.FailureReport{}, err
				}
				return fmt.Sprintf("%+v %d", r.Summary, r.TotalSC), r.Failures, nil
			}},
		{name: "correlated", samples: 12, degrade: true, shardable: true,
			run: func(ctx context.Context, rc core.RunConfig) (string, core.FailureReport, error) {
				r, err := fx.path.MonteCarloCorrelatedCtx(ctx, fx.corr, core.MCConfig{RunConfig: rc, N: 12, KeepSamples: true})
				if err != nil {
					return "", core.FailureReport{}, err
				}
				return fmt.Sprintf("%+v %d %v", r.Summary, r.TotalSC, r.Delays), r.Failures, nil
			}},
		// Two adaptive rounds (6, then 12 samples): one sweep call each.
		{name: "is-yield", samples: 12, degrade: true,
			run: func(ctx context.Context, rc core.RunConfig) (string, core.FailureReport, error) {
				r, err := fx.path.ImportanceYieldCtx(ctx, core.ISConfig{
					RunConfig: rc, N: 6, MaxN: 12, TargetCI: 1e-12,
					Sources: dev, BudgetSigma: 2, GA: fx.ga,
				})
				if err != nil {
					return "", core.FailureReport{}, err
				}
				return fmt.Sprintf("%v %v %v %d %d %d %+v", r.FailProb, r.StdErr, r.ESS, r.N, r.Evals, r.TotalSC, r.Weighted), r.Failures, nil
			}},
		{name: "skew", samples: 8, degrade: true, shardable: true,
			run: func(ctx context.Context, rc core.RunConfig) (string, core.FailureReport, error) {
				r, err := fx.pair.MonteCarloSkewCtx(ctx, core.SkewConfig{RunConfig: rc, N: 8})
				if err != nil {
					return "", core.FailureReport{}, err
				}
				return fmt.Sprintf("%+v %+v %v", r.ArrivalA, r.Skew, r.Skews), r.Failures, nil
			}},
		{name: "ssta-mc", samples: 8, degrade: true,
			run: func(ctx context.Context, rc core.RunConfig) (string, core.FailureReport, error) {
				rc.MacroCache = fx.store
				r, err := ssta.RunMC(ctx, fx.s27, ssta.Config{RunConfig: rc, Sources: dev, Elems: 4}, 8)
				if err != nil {
					return "", core.FailureReport{}, err
				}
				return fmt.Sprintf("%+v %+v %d", r.Sinks, r.Chip, r.TotalSC), r.Failures, nil
			}},
	}
}

// classes lists a report's failure classes.
func classes(r core.FailureReport) []core.FailureClass {
	var out []core.FailureClass
	for _, c := range r.Classes {
		out = append(out, c.Class)
	}
	return out
}

func TestSweepPolicies(t *testing.T) {
	fx := sweepFixtures(t)
	for _, d := range sweepDrivers(fx) {
		t.Run(d.name, func(t *testing.T) {
			// The timeout, skip and fault-schedule rows journal their
			// runs, so each policy is also checked with journaling on.
			journal := func(t *testing.T) *checkpoint.Config {
				return &checkpoint.Config{Path: filepath.Join(t.TempDir(), "journal.ck")}
			}
			// A canceled run returns promptly even while a sample hangs far
			// short of its watchdog deadline, and cancellation is never
			// recorded as a sample failure.
			t.Run("cancel", func(t *testing.T) {
				f := useFaults(t)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var canceled atomic.Int64
				go func() {
					select {
					case <-f.entered:
					case <-time.After(10 * time.Second):
					}
					canceled.Store(time.Now().UnixNano())
					cancel()
				}()
				_, _, err := d.run(ctx, core.RunConfig{Seed: 3, Workers: 2, Engine: "test-hang", OnFailure: core.Skip, SampleTimeout: 3 * time.Second})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
				if since := time.Since(time.Unix(0, canceled.Load())); since > time.Second {
					t.Fatalf("canceled run returned %v after the cancel, want < 1s", since)
				}
			})
			// Every sample hangs: each is skipped as a timeout and counted.
			t.Run("timeout", func(t *testing.T) {
				useFaults(t)
				m := &runner.Metrics{}
				_, rep, err := d.run(context.Background(), core.RunConfig{Seed: 3, Workers: 4, Engine: "test-hang", OnFailure: core.Skip, SampleTimeout: 10 * time.Millisecond, Metrics: m, Checkpoint: journal(t)})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Skipped != d.samples || fmt.Sprint(classes(rep)) != fmt.Sprint([]core.FailureClass{core.FailTimeout}) {
					t.Fatalf("skipped %d of %d, classes %v; want all, as %s", rep.Skipped, d.samples, classes(rep), core.FailTimeout)
				}
				if got := m.Snapshot().TimedOut; got != int64(d.samples) {
					t.Fatalf("Metrics.TimedOut = %d, want %d", got, d.samples)
				}
			})
			// The scripted failures are skipped, identically at 1 and 4
			// workers.
			t.Run("skip", func(t *testing.T) {
				f := useFaults(t)
				f.fail = flaky
				ref, rep, err := d.run(context.Background(), core.RunConfig{Seed: 3, Workers: 1, Engine: "test-faulty", OnFailure: core.Skip, Checkpoint: journal(t)})
				if err != nil {
					t.Fatal(err)
				}
				if n := int(f.failed.Load()); rep.Skipped != n || n == 0 || n == d.samples {
					t.Fatalf("skipped %d, scripted %d failures of %d samples", rep.Skipped, n, d.samples)
				}
				got, rep4, err := d.run(context.Background(), core.RunConfig{Seed: 3, Workers: 4, Engine: "test-faulty", OnFailure: core.Skip, Checkpoint: journal(t)})
				if err != nil {
					t.Fatal(err)
				}
				if got != ref || fmt.Sprintf("%+v", rep4) != fmt.Sprintf("%+v", rep) {
					t.Fatalf("4 workers differ from 1:\n%s %+v\n%s %+v", got, rep4, ref, rep)
				}
			})
			if d.degrade {
				// A failed sample is recovered by the next rung.
				t.Run("degrade", func(t *testing.T) {
					f := useFaults(t)
					f.fail = flaky
					m := &runner.Metrics{}
					_, rep, err := d.run(context.Background(), core.RunConfig{
						Seed: 3, Workers: 2, Engine: "test-faulty", OnFailure: core.Degrade,
						Ladder: []string{core.EngineTetaExact}, Metrics: m,
					})
					if err != nil {
						t.Fatal(err)
					}
					n := int(f.failed.Load())
					if rep.Degraded != n || rep.Skipped != 0 || m.Snapshot().Degraded != int64(n) {
						t.Fatalf("degraded %d (metrics %d), skipped %d; want %d recovered", rep.Degraded, m.Snapshot().Degraded, rep.Skipped, n)
					}
				})
				// A hung rung gets its own deadline, times out, and the
				// sample is skipped. Every primary evaluation fails at once,
				// so no real evaluation races the short deadline.
				t.Run("hung-rung", func(t *testing.T) {
					f := useFaults(t)
					f.fail = func(teta.RunSpec) bool { return true }
					m := &runner.Metrics{}
					_, rep, err := d.run(context.Background(), core.RunConfig{
						Seed: 3, Workers: 4, Engine: "test-faulty", OnFailure: core.Degrade,
						Ladder: []string{"test-hang"}, SampleTimeout: 10 * time.Millisecond, Metrics: m,
					})
					if err != nil {
						t.Fatal(err)
					}
					if rep.Skipped != d.samples || rep.Degraded != 0 || m.Snapshot().TimedOut != int64(d.samples) {
						t.Fatalf("skipped %d, degraded %d, timed out %d; want %d hung-rung timeouts", rep.Skipped, rep.Degraded, m.Snapshot().TimedOut, d.samples)
					}
					if fmt.Sprint(classes(rep)) != fmt.Sprint([]core.FailureClass{core.FailTimeout}) {
						t.Fatalf("classes %v, want %s", classes(rep), core.FailTimeout)
					}
				})
			}
			// A journaled run cut short and resumed reproduces the
			// uninterrupted run bit for bit, skips included.
			t.Run("resume", func(t *testing.T) {
				f := useFaults(t)
				f.fail = flaky
				rc := core.RunConfig{Seed: 3, Workers: 2, Engine: "test-faulty", OnFailure: core.Skip}
				ref, refRep, err := d.run(context.Background(), rc)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "journal.ck")
				if d.shardable {
					for limit := 3; ; limit += 3 {
						rc.Checkpoint = &checkpoint.Config{Path: path, Every: 2, Resume: true, Limit: limit}
						_, _, err := d.run(context.Background(), rc)
						if err == nil {
							break
						}
						if !errors.Is(err, core.ErrPartial) {
							t.Fatalf("leg with Limit %d: %v", limit, err)
						}
					}
				} else {
					// Cancel only once a durable cut exists: the journal's
					// prefix has passed sample 0. Progress runs on the
					// delivery goroutine right after each flush, so the
					// cancel always lands inside the sweep.
					ctx, cancel := context.WithCancel(context.Background())
					rc.Progress = func(int, int) {
						if snap, _, err := checkpoint.Load(path, nil); err == nil && snap.Next > 0 {
							cancel()
						}
					}
					rc.Checkpoint = &checkpoint.Config{Path: path, Every: 1, Resume: true}
					if _, _, err := d.run(ctx, rc); !errors.Is(err, context.Canceled) {
						t.Fatalf("want the first leg canceled, got %v", err)
					}
					cancel()
					rc.Progress = nil
				}
				m := &runner.Metrics{}
				rc.Checkpoint = &checkpoint.Config{Path: path, Every: 1, Resume: true}
				rc.Metrics = m
				got, rep, err := d.run(context.Background(), rc)
				if err != nil {
					t.Fatal(err)
				}
				if m.Snapshot().Resumed == 0 {
					t.Fatal("the final leg resumed nothing")
				}
				if got != ref || fmt.Sprintf("%+v", rep) != fmt.Sprintf("%+v", refRep) {
					t.Fatalf("resumed run differs:\n%s %+v\n%s %+v", got, rep, ref, refRep)
				}
			})
			// A seeded fault schedule fails a reproducible set of
			// evaluations; each one is skipped.
			t.Run("faultinj", func(t *testing.T) {
				run := func() (string, core.FailureReport, int) {
					f := useFaults(t)
					sched := faultinj.NewSchedule(11).Rule(faultinj.OpEngine, faultinj.KindFail, 0.4)
					f.fail = func(teta.RunSpec) bool { return sched.Decide(faultinj.OpEngine) == faultinj.KindFail }
					got, rep, err := d.run(context.Background(), core.RunConfig{Seed: 3, Workers: 1, Engine: "test-faulty", OnFailure: core.Skip, Checkpoint: journal(t)})
					if err != nil {
						t.Fatal(err)
					}
					return got, rep, int(f.failed.Load())
				}
				a, repA, n := run()
				if n == 0 || repA.Skipped != n {
					t.Fatalf("skipped %d of %d injected failures", repA.Skipped, n)
				}
				if b, repB, _ := run(); b != a || fmt.Sprintf("%+v", repB) != fmt.Sprintf("%+v", repA) {
					t.Fatalf("same schedule, different run:\n%s %+v\n%s %+v", b, repB, a, repA)
				}
			})
		})
	}
}
