// Package job is the serializable layer every statistical driver runs
// behind: a versioned job.Spec names a driver and carries its
// parameters plus the shared execution policy, a content hash gives the
// spec a stable identity (the same inputs hash identically regardless
// of JSON field order), and a job.Result envelope returns the summary,
// failure report, cost counters and artifact references. The drivers
// themselves — path Monte Carlo, correlated MC, gradient analysis,
// worst-case corner search, skew, importance-sampling yield,
// cross-engine validation, block-level SSTA, and the composite
// subcommand drivers — register in a process-global registry
// (Register/Lookup/Names, mirroring the core engine registry) as thin
// adapters over the internal/core and internal/ssta entry points, so
// `lcsim run -spec job.json`, the classic subcommands, and any future
// HTTP shell all execute the exact same code and produce bit-identical
// output.
//
// The spec hash subsumes the checkpoint fingerprint's discipline: it
// covers the statistical identity of the run (version, driver, seed,
// engine, ladder, failure policy, driver parameters) and deliberately
// excludes execution wiring — workers, batch size, timeouts, checkpoint
// journaling, the model-cache directory — because none of those change
// the result.
package job

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// SpecVersion is the job-spec schema version this build reads and
// writes. Parse rejects any other value: a spec is a durable artifact,
// and silently reinterpreting an old one is worse than refusing it.
// Version 2: stage transients end by the settle rule, which moves path
// Monte-Carlo results without changing a spec's fields. Version 3: the DC
// start settles a stacked driver's internal nodes by Newton, which moves
// block SSTA results (s27, s9234) at unchanged spec hashes.
const SpecVersion = 3

// Duration is a time.Duration that serializes as a human-readable
// string ("150ms", "2m30s") and unmarshals from either that form or a
// plain nanosecond count.
type Duration time.Duration

// MarshalJSON renders the duration in time.Duration.String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a nanosecond number.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("job: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("job: duration must be a string or nanoseconds: %s", data)
	}
	*d = Duration(ns)
	return nil
}

// CheckpointSpec is the serializable form of checkpoint.Config: where
// the run journals and whether it resumes. Execution wiring — it is
// excluded from the spec hash.
type CheckpointSpec struct {
	Path   string `json:"path"`
	Every  int    `json:"every,omitempty"`
	Resume bool   `json:"resume,omitempty"`
	// Limit bounds the sweep to samples [0, Limit): the driver journals
	// the cut and fails with core.ErrPartial instead of producing a
	// result (see checkpoint.Config.Limit). lcsimd sets it to execute a
	// job as a chain of resumable sample-range shards.
	Limit int `json:"limit,omitempty"`
}

func (c *CheckpointSpec) config() *checkpoint.Config {
	if c == nil {
		return nil
	}
	return &checkpoint.Config{Path: c.Path, Every: c.Every, Resume: c.Resume, Limit: c.Limit}
}

// RunSpec is the serializable execution-policy block of a job spec: the
// job-layer mirror of core.RunConfig, minus the process wiring (metrics
// sinks, progress callbacks, the model-cache handle) that lives in Env.
// Seed, Engine, Ladder and OnFailure are statistical identity and enter
// the spec hash; Workers, Batch, the timeouts and Checkpoint do not —
// results are bit-identical across all of them.
type RunSpec struct {
	Seed          int64           `json:"seed"`
	Workers       int             `json:"workers,omitempty"`
	Batch         int             `json:"batch,omitempty"`
	Engine        string          `json:"engine,omitempty"`
	Ladder        []string        `json:"ladder,omitempty"`
	OnFailure     string          `json:"on_failure,omitempty"`
	Timeout       Duration        `json:"timeout,omitempty"`
	SampleTimeout Duration        `json:"sample_timeout,omitempty"`
	Checkpoint    *CheckpointSpec `json:"checkpoint,omitempty"`
}

// runConfig assembles the core execution-policy block from the spec and
// the process-side environment. label names the sweep in progress
// output.
func (r RunSpec) runConfig(label string, env *Env) (core.RunConfig, error) {
	policy, err := core.ParseFailurePolicy(r.OnFailure)
	if err != nil {
		return core.RunConfig{}, err
	}
	var progress func(done, total int)
	if env.Progress != nil {
		progress = env.Progress(label)
	}
	return core.RunConfig{
		Seed:          r.Seed,
		Workers:       r.Workers,
		BatchSize:     r.Batch,
		Metrics:       env.Metrics,
		Progress:      progress,
		OnFailure:     policy,
		Engine:        r.Engine,
		Ladder:        r.Ladder,
		Checkpoint:    r.Checkpoint.config(),
		SampleTimeout: time.Duration(r.SampleTimeout),
		MacroCache:    env.MacroCache,
	}, nil
}

// Spec is one serializable job: which driver runs, with which
// parameters, under which execution policy. Params is the
// driver-specific parameter object, decoded strictly by the driver.
type Spec struct {
	Version int             `json:"version"`
	Driver  string          `json:"driver"`
	Run     RunSpec         `json:"run"`
	Params  json.RawMessage `json:"params,omitempty"`
}

// NewSpec builds a spec for driver with the given execution policy and
// parameter object (marshaled immediately, so later mutation of params
// cannot alias into the spec).
func NewSpec(driver string, run RunSpec, params any) (*Spec, error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, fmt.Errorf("job: marshal %s params: %w", driver, err)
	}
	return &Spec{Version: SpecVersion, Driver: driver, Run: run, Params: raw}, nil
}

// Parse decodes a spec strictly: unknown top-level fields are rejected
// (a typo must not silently change a run), and the version must match
// SpecVersion.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("job: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's envelope (version, driver name present).
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("job: spec version %d, this build reads version %d", s.Version, SpecVersion)
	}
	if s.Driver == "" {
		return fmt.Errorf("job: spec names no driver (registered: %v)", Names())
	}
	return nil
}

// Marshal renders the spec as indented JSON with a trailing newline —
// the `-dump-spec` output format, accepted verbatim by Parse.
func (s *Spec) Marshal() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// hashIdentity is the canonical form the spec hash covers: statistical
// identity only, in a fixed field order, with the failure policy
// normalized (so "" and "fail-fast" hash identically) and the params
// object canonicalized through an order-independent re-marshal.
type hashIdentity struct {
	Version   int      `json:"version"`
	Driver    string   `json:"driver"`
	Seed      int64    `json:"seed"`
	Engine    string   `json:"engine"`
	Ladder    []string `json:"ladder,omitempty"`
	OnFailure string   `json:"on_failure"`
	Params    any      `json:"params"`
}

// Hash returns the spec's content hash, "sha256:" + 64 hex digits. Two
// specs hash identically exactly when they describe the same
// statistical run: JSON field order and the execution-wiring fields
// (workers, batch, timeouts, checkpoint) do not enter, the version,
// driver, seed, engine selection, failure policy and every driver
// parameter do.
func (s *Spec) Hash() (string, error) {
	policy, err := core.ParseFailurePolicy(s.Run.OnFailure)
	if err != nil {
		return "", err
	}
	var params any
	if len(s.Params) > 0 {
		// Round-tripping through interface{} canonicalizes the params
		// object: Go marshals map keys sorted, so the original field
		// order is erased.
		if err := json.Unmarshal(s.Params, &params); err != nil {
			return "", fmt.Errorf("job: hash %s params: %w", s.Driver, err)
		}
	}
	body, err := json.Marshal(hashIdentity{
		Version:   s.Version,
		Driver:    s.Driver,
		Seed:      s.Run.Seed,
		Engine:    s.Run.Engine,
		Ladder:    s.Run.Ladder,
		OnFailure: policy.String(),
		Params:    params,
	})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(body)
	return fmt.Sprintf("sha256:%x", sum), nil
}

// decodeParams strictly decodes a spec's params object into the
// driver's parameter struct; unknown fields are rejected so a
// misspelled knob fails loudly instead of silently running defaults.
func decodeParams(s *Spec, into any) error {
	raw := s.Params
	if len(raw) == 0 {
		raw = json.RawMessage("{}")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("job: %s params: %w", s.Driver, err)
	}
	return nil
}

// Artifact references one file a driver wrote (the `sta -json` SSTA
// report) so result consumers can find driver outputs without parsing
// driver text.
type Artifact struct {
	Name string `json:"name"`
	Path string `json:"path"`
}

// Result is the envelope every driver returns: a machine-readable
// summary (driver-specific shape), the per-sample failure report when
// the driver ran a sweep, the evaluation-cost counters, and references
// to any files written. CheckFailed reports a driver-level acceptance
// gate that failed (sta -check, yield -check-mc); the run itself
// succeeded, but the CLI exits non-zero.
type Result struct {
	Driver      string              `json:"driver"`
	SpecHash    string              `json:"spec_hash"`
	Summary     any                 `json:"summary,omitempty"`
	Failures    *core.FailureReport `json:"failures,omitempty"`
	Metrics     runner.Snapshot     `json:"metrics"`
	Artifacts   []Artifact          `json:"artifacts,omitempty"`
	CheckFailed bool                `json:"check_failed,omitempty"`
}

// Env is the process-side wiring a driver runs with: where its report
// text goes, where shared cost counters accumulate, the model-cache
// handle, and the optional progress-reporter factory (nil = progress
// off; the factory is called once per sweep with the sweep's label).
// None of it enters the spec hash — two processes with different Envs
// running the same spec produce bit-identical Stdout.
type Env struct {
	Stdout     io.Writer
	Stderr     io.Writer
	Metrics    *runner.Metrics
	MacroCache teta.MacroStore
	Progress   func(label string) func(done, total int)
}

// printf writes driver report text to the env's stdout.
func (e *Env) printf(format string, args ...any) {
	fmt.Fprintf(e.Stdout, format, args...)
}

// printMetrics reports the evaluation-cost counters of a run in the
// classic subcommand format.
func (e *Env) printMetrics() {
	s := e.Metrics.Snapshot()
	e.printf("cost: %d samples, %d stage evals, %d SC iterations, %d linear solves\n",
		s.Samples, s.StageEvals, s.SCIterations, s.LinearSolves)
	if s.Skipped > 0 || s.Degraded > 0 || s.TimedOut > 0 {
		e.printf("      %d skipped, %d degraded-recovered, %d timed out\n", s.Skipped, s.Degraded, s.TimedOut)
	}
	if s.Resumed > 0 {
		e.printf("      resumed: %d samples restored from the checkpoint journal\n", s.Resumed)
	}
}

// printFailures renders the per-sample failure table of a run (no
// output for a clean run).
func (e *Env) printFailures(r *core.FailureReport) {
	if r.Any() {
		fmt.Fprint(e.Stdout, r.Render())
	}
}

// failuresRef returns r for the Result envelope when it holds any
// failures, nil otherwise (so clean runs serialize without the block).
func failuresRef(r *core.FailureReport) *core.FailureReport {
	if r == nil || !r.Any() {
		return nil
	}
	return r
}
