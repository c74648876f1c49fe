package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"lcsim/internal/poleres"
	"lcsim/internal/teta"
)

// ErrWaveformNaN reports that a stage's output waveform never completed
// its transition inside the simulation window, so the ramp measurement
// (50% crossing, slew) came back NaN or non-positive. It is a per-sample
// fault: a slow corner can legitimately run out of window while the rest
// of the population is fine.
var ErrWaveformNaN = errors.New("core: output waveform did not complete its transition")

// ErrSampleTimeout reports a per-sample evaluation abandoned at the
// RunConfig.SampleTimeout watchdog deadline of a Sweep. Engines are
// synchronous and cannot be preempted, so the evaluation goroutine is
// left to finish (or hang) in the background; its scratch is retired and
// its eventual result discarded. The error flows through the failure
// policies like any other per-sample fault: FailFast aborts, Skip
// excludes the sample, Degrade retries the next ladder rung with a fresh
// deadline.
var ErrSampleTimeout = errors.New("core: sample evaluation exceeded its watchdog deadline")

// FailureClass labels a per-sample failure cause for reporting and the
// runner's per-class counters. Classification is by errors.Is against the
// typed causes exported by teta, poleres and this package — never by
// string matching.
type FailureClass string

const (
	// ClassSCDiverged: the Successive-Chords transient diverged
	// (teta.ErrSCDiverged).
	ClassSCDiverged FailureClass = "sc-diverged"
	// ClassSCStalled: SC ran out of its iteration budget without
	// diverging (teta.ErrNoConvergence without a more specific cause).
	ClassSCStalled FailureClass = "sc-no-convergence"
	// ClassDCNewtonFailed: the t=0 DC Newton found no operating point
	// (teta.ErrDCNewtonFailed).
	ClassDCNewtonFailed FailureClass = "dc-newton-failed"
	// ClassSingularGr: the sample's evaluated Gr(w) is singular, so the
	// macromodel DC correction is impossible (poleres.ErrSingularGr).
	ClassSingularGr FailureClass = "singular-gr"
	// ClassAllPolesUnstable: the stability filter removed every pole of
	// the sample's macromodel (poleres.ErrAllPolesUnstable).
	ClassAllPolesUnstable FailureClass = "all-poles-unstable"
	// ClassWaveformNaN: a stage output never completed its transition
	// (ErrWaveformNaN).
	ClassWaveformNaN FailureClass = "waveform-nan"
	// ClassOther: any per-sample failure not matched above.
	ClassOther FailureClass = "other"
	// FailTimeout: the evaluation was abandoned at the per-sample
	// watchdog deadline (ErrSampleTimeout).
	FailTimeout FailureClass = "timeout"
)

// ClassifyFailure maps a per-sample error to its failure class via
// errors.Is on the typed causes. Specific causes win over the generic
// ErrNoConvergence umbrella.
func ClassifyFailure(err error) FailureClass {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrSampleTimeout):
		return FailTimeout
	case errors.Is(err, poleres.ErrSingularGr):
		return ClassSingularGr
	case errors.Is(err, poleres.ErrAllPolesUnstable):
		return ClassAllPolesUnstable
	case errors.Is(err, teta.ErrSCDiverged):
		return ClassSCDiverged
	case errors.Is(err, teta.ErrDCNewtonFailed):
		return ClassDCNewtonFailed
	case errors.Is(err, ErrWaveformNaN):
		return ClassWaveformNaN
	case errors.Is(err, teta.ErrNoConvergence):
		return ClassSCStalled
	}
	return ClassOther
}

// SampleError is the typed per-sample failure: which sample, which
// class, and the underlying cause. Unwrap exposes the cause chain, so
// errors.Is(err, teta.ErrSCDiverged) etc. keep working through it, and
// errors.As(err, *&SampleError{}) recovers the index/class from a
// wrapped run error.
type SampleError struct {
	Index int
	Class FailureClass
	Err   error
}

// NewSampleError classifies cause and wraps it with the sample index.
func NewSampleError(index int, cause error) *SampleError {
	return &SampleError{Index: index, Class: ClassifyFailure(cause), Err: cause}
}

// Error omits the sample index (the runner's "sample %d:" wrap already
// carries it) and leads with the class label.
func (e *SampleError) Error() string { return fmt.Sprintf("[%s] %v", e.Class, e.Err) }

// Unwrap exposes the underlying cause.
func (e *SampleError) Unwrap() error { return e.Err }

// FailurePolicy selects how a statistical run responds to per-sample
// failures.
type FailurePolicy int

const (
	// FailFast aborts the run on the first failure, with the runner's
	// deterministic lowest-index-wins error (the default, and the only
	// pre-taxonomy behavior).
	FailFast FailurePolicy = iota
	// Skip records and classifies the failure, excludes the sample from
	// the aggregate statistics, and keeps going. The skip-set is a pure
	// function of the sample indices, so results are bit-identical at any
	// worker count.
	Skip
	// Degrade retries a failed sample through the engine ladder (by
	// default every ladder-eligible engine costlier than the primary,
	// ascending: teta-fast → teta-exact → spice-golden) before skipping
	// it. Recovered samples enter the aggregate; samples every rung fails
	// on are recorded and skipped.
	Degrade
)

// String names the policy as accepted by ParseFailurePolicy.
func (p FailurePolicy) String() string {
	switch p {
	case Skip:
		return "skip"
	case Degrade:
		return "degrade"
	default:
		return "fail-fast"
	}
}

// ParseFailurePolicy maps a name ("fail-fast", "skip", "degrade") to a
// FailurePolicy.
func ParseFailurePolicy(name string) (FailurePolicy, error) {
	switch name {
	case "", "fail-fast", "failfast":
		return FailFast, nil
	case "skip":
		return Skip, nil
	case "degrade":
		return Degrade, nil
	}
	return FailFast, fmt.Errorf("core: unknown failure policy %q (want fail-fast, skip or degrade)", name)
}

// FailureClassStats aggregates one failure class across a run.
type FailureClassStats struct {
	Class      FailureClass
	Count      int
	FirstIndex int    // lowest failing sample index of this class
	FirstErr   string // the first (lowest-index) error message of this class
}

// FailureReport summarizes the per-sample failures of a statistical run
// under a Skip or Degrade policy. It is deterministic: the runner
// delivers skips in strict index order, so counts, first indices and the
// skip-set are bit-identical at any worker count. A FailFast run that
// aborts never produces a report (the run error carries the failure).
type FailureReport struct {
	// Policy is the failure policy the run used.
	Policy FailurePolicy
	// Skipped counts samples excluded from the aggregate statistics.
	Skipped int
	// Degraded counts samples whose primary evaluation failed but were
	// recovered by a costlier engine-ladder rung; they ARE in the
	// aggregate.
	Degraded int
	// Classes aggregates the skipped failures per class, sorted by class
	// name.
	Classes []FailureClassStats
	// SkippedIndices lists the excluded sample indices, ascending.
	SkippedIndices []int
}

// Any reports whether anything failed (skipped) or degraded.
func (r *FailureReport) Any() bool { return r.Skipped > 0 || r.Degraded > 0 }

// record folds one skipped sample into the report and returns its
// class. Called in strict index order (the runner's OnSkip contract),
// so FirstIndex/FirstErr are the true minima and SkippedIndices stays
// sorted.
func (r *FailureReport) record(index int, err error) FailureClass {
	r.Skipped++
	r.SkippedIndices = append(r.SkippedIndices, index)
	class := ClassOther
	msg := ""
	var se *SampleError
	if errors.As(err, &se) {
		class, msg = se.Class, se.Err.Error()
	} else if err != nil {
		class, msg = ClassifyFailure(err), err.Error()
	}
	for i := range r.Classes {
		if r.Classes[i].Class == class {
			r.Classes[i].Count++
			return class
		}
	}
	r.Classes = append(r.Classes, FailureClassStats{
		Class: class, Count: 1, FirstIndex: index, FirstErr: msg,
	})
	sort.Slice(r.Classes, func(i, j int) bool { return r.Classes[i].Class < r.Classes[j].Class })
	return class
}

// Render draws the failure table printed by cmd/lcsim after a run with
// failures ("" when the run was clean).
func (r *FailureReport) Render() string {
	if !r.Any() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "failures (policy %s): %d skipped, %d degraded-recovered\n", r.Policy, r.Skipped, r.Degraded)
	if len(r.Classes) > 0 {
		fmt.Fprintf(&b, "%-22s %-7s %-11s %s\n", "class", "count", "first-idx", "first error")
		for _, c := range r.Classes {
			msg := c.FirstErr
			if len(msg) > 72 {
				msg = msg[:69] + "..."
			}
			fmt.Fprintf(&b, "%-22s %-7d %-11d %s\n", c.Class, c.Count, c.FirstIndex, msg)
		}
	}
	return b.String()
}
