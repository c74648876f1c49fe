package job

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lcsim/internal/runner"
)

// TestSpecMarshalParseRoundTrip: the -dump-spec output format must be
// accepted verbatim by Parse and reproduce the spec.
func TestSpecMarshalParseRoundTrip(t *testing.T) {
	run := RunSpec{
		Seed:          7,
		Workers:       4,
		Batch:         16,
		Engine:        "teta-exact",
		Ladder:        []string{"teta-fast", "teta-exact"},
		OnFailure:     "skip",
		Timeout:       Duration(2 * time.Minute),
		SampleTimeout: Duration(150 * time.Millisecond),
		Checkpoint:    &CheckpointSpec{Path: "run.ckpt", Every: 32, Resume: true},
	}
	spec, err := NewSpec("path", run, PathParams{
		ChainParams: ChainParams{Cells: []string{"INV", "NAND2"}, Elems: 10, Drive: 2, StdDL: 0.33, StdVT: 0.33},
		MC:          500,
		GA:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(buf)
	if err != nil {
		t.Fatalf("Parse(Marshal(spec)): %v", err)
	}
	if got.Version != spec.Version || got.Driver != spec.Driver {
		t.Fatalf("envelope changed: got %d/%q, want %d/%q", got.Version, got.Driver, spec.Version, spec.Driver)
	}
	if !reflect.DeepEqual(got.Run, spec.Run) {
		t.Fatalf("RunSpec changed across the round trip:\n got %+v\nwant %+v", got.Run, spec.Run)
	}
	var p1, p2 PathParams
	if err := json.Unmarshal(spec.Params, &p1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got.Params, &p2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("params changed across the round trip:\n got %+v\nwant %+v", p2, p1)
	}
	h1, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := got.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash changed across the round trip: %s vs %s", h1, h2)
	}
}

// TestParseRejectsUnknownField: a typo in a spec must fail loudly, not
// silently run defaults.
func TestParseRejectsUnknownField(t *testing.T) {
	_, err := Parse([]byte(`{"version":2,"driver":"path","run":{"seed":1},"paramz":{}}`))
	if err == nil {
		t.Fatal("unknown top-level field accepted")
	}
}

// TestParseRejectsVersionMismatch: a spec is a durable artifact; any
// version this build does not read is refused, never reinterpreted.
// Version 1 specs predate the settle rule, which moved path MC results
// at an unchanged spec hash, so they are refused too.
func TestParseRejectsVersionMismatch(t *testing.T) {
	for _, in := range []string{
		`{"version":1,"driver":"path","run":{"seed":1}}`,
		`{"version":3,"driver":"path","run":{"seed":1}}`,
		`{"driver":"path","run":{"seed":1}}`, // version 0 (absent)
	} {
		if _, err := Parse([]byte(in)); err == nil {
			t.Fatalf("spec with wrong version accepted: %s", in)
		}
	}
}

func TestParseRejectsMissingDriver(t *testing.T) {
	if _, err := Parse([]byte(`{"version":2,"run":{"seed":1}}`)); err == nil {
		t.Fatal("spec without a driver accepted")
	}
}

func mustHash(t *testing.T, s *Spec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(h, "sha256:") || len(h) != len("sha256:")+64 {
		t.Fatalf("malformed hash %q", h)
	}
	return h
}

// TestHashIgnoresParamFieldOrder: the hash is a content address — JSON
// field order is presentation, not identity.
func TestHashIgnoresParamFieldOrder(t *testing.T) {
	a := &Spec{Version: SpecVersion, Driver: "path", Run: RunSpec{Seed: 3},
		Params: json.RawMessage(`{"cells":["INV","NAND2"],"elems":10,"mc":500}`)}
	b := &Spec{Version: SpecVersion, Driver: "path", Run: RunSpec{Seed: 3},
		Params: json.RawMessage(`{"mc":500,"elems":10,"cells":["INV","NAND2"]}`)}
	if ha, hb := mustHash(t, a), mustHash(t, b); ha != hb {
		t.Fatalf("param field order changed the hash: %s vs %s", ha, hb)
	}
}

// TestHashIgnoresExecutionWiring: workers, batch size, timeouts and
// checkpoint journaling do not change results, so they must not change
// the spec's identity either.
func TestHashIgnoresExecutionWiring(t *testing.T) {
	base := &Spec{Version: SpecVersion, Driver: "path", Run: RunSpec{Seed: 3, Engine: "teta-exact"},
		Params: json.RawMessage(`{"mc":500}`)}
	wired := &Spec{Version: SpecVersion, Driver: "path", Run: RunSpec{
		Seed: 3, Engine: "teta-exact",
		Workers: 8, Batch: 3,
		Timeout:       Duration(time.Minute),
		SampleTimeout: Duration(50 * time.Millisecond),
		Checkpoint:    &CheckpointSpec{Path: "x.ckpt", Every: 16, Resume: true},
	}, Params: json.RawMessage(`{"mc":500}`)}
	if hb, hw := mustHash(t, base), mustHash(t, wired); hb != hw {
		t.Fatalf("execution wiring entered the hash: %s vs %s", hb, hw)
	}
}

// TestHashNormalizesFailurePolicy: "" and its default spelling are the
// same policy and must share one hash.
func TestHashNormalizesFailurePolicy(t *testing.T) {
	a := &Spec{Version: SpecVersion, Driver: "path", Run: RunSpec{Seed: 1}}
	b := &Spec{Version: SpecVersion, Driver: "path", Run: RunSpec{Seed: 1, OnFailure: "fail-fast"}}
	if ha, hb := mustHash(t, a), mustHash(t, b); ha != hb {
		t.Fatalf(`OnFailure "" and "fail-fast" hash differently: %s vs %s`, ha, hb)
	}
}

// TestHashCoversStatisticalIdentity: every field that changes what the
// run computes must change the hash.
func TestHashCoversStatisticalIdentity(t *testing.T) {
	mk := func() *Spec {
		return &Spec{Version: SpecVersion, Driver: "path", Run: RunSpec{Seed: 3, Engine: "teta-exact"},
			Params: json.RawMessage(`{"mc":500}`)}
	}
	base := mustHash(t, mk())
	muts := map[string]func(*Spec){
		"driver":     func(s *Spec) { s.Driver = "skew" },
		"seed":       func(s *Spec) { s.Run.Seed = 4 },
		"engine":     func(s *Spec) { s.Run.Engine = "teta-fast" },
		"ladder":     func(s *Spec) { s.Run.Ladder = []string{"teta-fast", "teta-exact"} },
		"on_failure": func(s *Spec) { s.Run.OnFailure = "skip" },
		"params":     func(s *Spec) { s.Params = json.RawMessage(`{"mc":501}`) },
	}
	seen := map[string]string{base: "base"}
	for name, mut := range muts {
		s := mk()
		mut(s)
		h := mustHash(t, s)
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s collides with %s: %s", name, prev, h)
		}
		seen[h] = name
	}
}

func TestHashRejectsBadPolicy(t *testing.T) {
	s := &Spec{Version: SpecVersion, Driver: "path", Run: RunSpec{OnFailure: "explode"}}
	if _, err := s.Hash(); err == nil {
		t.Fatal("unknown failure policy hashed instead of erroring")
	}
}

// TestDurationJSON: the spec's durations serialize human-readably and
// accept both that form and plain nanoseconds.
func TestDurationJSON(t *testing.T) {
	buf, err := json.Marshal(Duration(150 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != `"150ms"` {
		t.Fatalf("Duration marshals as %s, want \"150ms\"", buf)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"2m30s"`), &d); err != nil || time.Duration(d) != 150*time.Second {
		t.Fatalf("string form: %v, %v", time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`1500000000`), &d); err != nil || time.Duration(d) != 1500*time.Millisecond {
		t.Fatalf("nanosecond form: %v, %v", time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`"soon"`), &d); err == nil {
		t.Fatal("bad duration string accepted")
	}
}

// registerEcho installs the test driver once per process (Register
// panics on duplicates by design; -count=N reruns share the registry).
var registerEcho = sync.OnceFunc(func() {
	Register(Driver{
		Name: "test-echo",
		Doc:  "test driver",
		Run: func(ctx context.Context, spec *Spec, env *Env) (*Result, error) {
			env.Metrics.Add(runner.StageEvals, 5)
			env.printf("echo\n")
			return &Result{Summary: "ok"}, nil
		},
	})
})

// TestRunStampsEnvelope: job.Run resolves the driver, defaults the env,
// and stamps driver name, spec hash and the metrics snapshot onto
// whatever the driver returned.
func TestRunStampsEnvelope(t *testing.T) {
	registerEcho()
	spec, err := NewSpec("test-echo", RunSpec{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	res, err := Run(context.Background(), spec, &Env{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if res.Driver != "test-echo" {
		t.Fatalf("Driver = %q", res.Driver)
	}
	want := mustHash(t, spec)
	if res.SpecHash != want {
		t.Fatalf("SpecHash = %q, want %q", res.SpecHash, want)
	}
	if res.Metrics.StageEvals != 5 {
		t.Fatalf("Metrics.StageEvals = %d, want 5 (env default not threaded)", res.Metrics.StageEvals)
	}
	if out.String() != "echo\n" {
		t.Fatalf("driver stdout = %q", out.String())
	}
	if _, ok := Lookup("test-echo"); !ok {
		t.Fatal("Lookup missed a registered driver")
	}
	found := false
	for _, n := range Names() {
		if n == "test-echo" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v omits test-echo", Names())
	}
}

// TestRegisterPanicsOnDuplicate: registration is init-time wiring; a
// name collision is a programming error and must fail immediately.
func TestRegisterPanicsOnDuplicate(t *testing.T) {
	registerEcho()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(Driver{Name: "test-echo", Run: func(context.Context, *Spec, *Env) (*Result, error) { return nil, nil }})
}

func TestRunRejectsUnknownDriver(t *testing.T) {
	spec := &Spec{Version: SpecVersion, Driver: "no-such-driver", Run: RunSpec{Seed: 1}}
	if _, err := Run(context.Background(), spec, nil); err == nil {
		t.Fatal("unknown driver ran")
	}
}

// TestDecodeParamsRejectsUnknownKnob: a misspelled driver parameter must
// not silently run defaults.
func TestDecodeParamsRejectsUnknownKnob(t *testing.T) {
	s := &Spec{Version: SpecVersion, Driver: "path", Params: json.RawMessage(`{"mc":500,"gaa":true}`)}
	var p PathParams
	if err := decodeParams(s, &p); err == nil {
		t.Fatal("unknown param field accepted")
	}
	s.Params = json.RawMessage(`{"mc":500,"ga":true}`)
	if err := decodeParams(s, &p); err != nil || p.MC != 500 || !p.GA {
		t.Fatalf("valid params rejected: %+v, %v", p, err)
	}
}
