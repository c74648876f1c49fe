package job

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"lcsim/internal/runner"
)

// TestRegistryConcurrentUse hammers Register/Lookup/Names from many
// goroutines (run under -race as part of `go test`): registration of
// distinct names while readers iterate must be free of data races and
// lost updates.
func TestRegistryConcurrentUse(t *testing.T) {
	const writers, readers, lookups = 8, 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			Register(Driver{
				Name: fmt.Sprintf("test-conc-%d", w),
				Run:  func(context.Context, *Spec, *Env) (*Result, error) { return &Result{}, nil },
			})
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				Lookup(fmt.Sprintf("test-conc-%d", i%writers))
				if names := Names(); len(names) == 0 {
					t.Error("Names() empty while drivers exist")
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("test-conc-%d", w)
		if _, ok := Lookup(name); !ok {
			t.Fatalf("driver %s lost after concurrent registration", name)
		}
	}
}

// TestRegisterContractPanics: empty names and nil Run functions are
// programming errors, rejected at registration time.
func TestRegisterContractPanics(t *testing.T) {
	for name, d := range map[string]Driver{
		"empty-name": {Run: func(context.Context, *Spec, *Env) (*Result, error) { return nil, nil }},
		"nil-run":    {Name: "test-nil-run"},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register accepted a %s driver", name)
				}
			}()
			Register(d)
		})
	}
}

// TestRunNilEnvDefaults: a nil Env (and nil Env fields) must not panic —
// Run supplies discard writers and a private metrics sink, and the
// result envelope still carries a metrics snapshot.
func TestRunNilEnvDefaults(t *testing.T) {
	Register(Driver{
		Name: "test-nil-env",
		Run: func(_ context.Context, _ *Spec, env *Env) (*Result, error) {
			// Exercise every Env convenience path the drivers rely on.
			env.printf("to the void\n")
			env.Metrics.Add(runner.StageEvals, 3)
			env.printMetrics()
			return &Result{}, nil
		},
	})
	spec, err := NewSpec("test-nil-env", RunSpec{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.StageEvals != 3 {
		t.Fatalf("defaulted env lost metrics: %+v", res.Metrics)
	}
	if _, err := Run(context.Background(), spec, &Env{}); err != nil {
		t.Fatalf("empty Env: %v", err)
	}
}

// TestRunConcurrentSharedEnv: many concurrent Runs of the same spec
// against one shared metrics sink — the lcsimd worker-pool shape — must
// be race-free and lose no counts.
func TestRunConcurrentSharedEnv(t *testing.T) {
	Register(Driver{
		Name: "test-conc-run",
		Run: func(_ context.Context, _ *Spec, env *Env) (*Result, error) {
			env.Metrics.Add(runner.StageEvals, 1)
			env.printf("tick\n")
			return &Result{}, nil
		},
	})
	spec, err := NewSpec("test-conc-run", RunSpec{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 32
	env := &Env{Stdout: &syncWriter{}, Metrics: &runner.Metrics{}}
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(context.Background(), spec, env); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := env.Metrics.Snapshot().StageEvals; got != runs {
		t.Fatalf("shared metrics counted %d stage evals, want %d", got, runs)
	}
}

// TestSweepSamples pins the shard-domain hook: the path and skew drivers
// report their MC sweep length, adaptive/non-sweep drivers report
// non-shardable, and bad params surface as errors.
func TestSweepSamples(t *testing.T) {
	mk := func(driver, params string) *Spec {
		return &Spec{Version: 1, Driver: driver, Run: RunSpec{Seed: 1}, Params: json.RawMessage(params)}
	}
	if n, ok, err := SweepSamples(mk("path", `{"mc":120}`)); err != nil || !ok || n != 120 {
		t.Fatalf("path: (%d, %v, %v), want (120, true, nil)", n, ok, err)
	}
	if n, ok, err := SweepSamples(mk("skew", `{"stages_a":3,"stages_b":3,"mc":64}`)); err != nil || !ok || n != 64 {
		t.Fatalf("skew: (%d, %v, %v), want (64, true, nil)", n, ok, err)
	}
	if _, ok, err := SweepSamples(mk("yield", `{}`)); err != nil || ok {
		t.Fatalf("yield must be non-shardable (adaptive growth), got ok=%v err=%v", ok, err)
	}
	if _, _, err := SweepSamples(mk("path", `{"mcc":5}`)); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, _, err := SweepSamples(mk("no-such", `{}`)); err == nil {
		t.Fatal("unknown driver accepted")
	}
}

// syncWriter is a mutex-guarded strings.Builder for concurrent driver
// stdout.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}
