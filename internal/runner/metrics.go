package runner

import (
	"sync"
	"sync/atomic"
)

// Counter names one cost counter of Metrics. Each is declared once here
// and read back through the Snapshot field of the same name.
type Counter int

const (
	// Samples counts completed sample evaluations, skipped ones included.
	Samples Counter = iota
	// SCIterations counts Successive-Chords iterations.
	SCIterations
	// LinearSolves counts triangular solves during timestepping.
	LinearSolves
	// StageEvals counts stage transient evaluations.
	StageEvals
	// Skipped counts samples a skip policy excluded from the aggregate.
	Skipped
	// Degraded counts samples that failed their primary evaluation and
	// were recovered by a degradation retry (a ladder rung).
	Degraded
	// TimedOut counts evaluations abandoned at a per-sample watchdog
	// deadline, whether a ladder rung later recovered the sample or not.
	TimedOut
	// Resumed counts samples restored from a durable checkpoint instead
	// of being evaluated by this process.
	Resumed
	// BusyNs is wall-clock nanoseconds workers spent inside evaluation
	// batches (summed across workers). BusyNs/(workers·elapsed) is the
	// run's worker utilization.
	BusyNs
	// SendWaitNs is wall-clock nanoseconds workers spent blocked handing
	// finished batches to the ordered-delivery collector — the channel
	// contention a flat scaling curve is made of.
	SendWaitNs
	// ModelCacheHits counts characterizations served from the cross-run
	// macromodel store; ModelCacheMisses those that had to run (and were
	// then stored); ModelCacheCorrupt on-disk entries rejected by the
	// integrity check (deleted and recomputed). A fully warm run has zero
	// misses.
	ModelCacheHits
	ModelCacheMisses
	ModelCacheCorrupt
	// CheckpointBakLoads counts resumes served from the .bak rotation
	// because the primary snapshot was missing or corrupt;
	// CheckpointRenameRetries counts atomic-install renames that needed a
	// retry. Non-zero values mean the journal survived real filesystem
	// trouble.
	CheckpointBakLoads
	CheckpointRenameRetries

	numCounters
)

// fields maps every Counter to its Snapshot field: the one table
// Snapshot and Merge loop over.
var fields = [numCounters]func(*Snapshot) *int64{
	Samples:                 func(s *Snapshot) *int64 { return &s.Samples },
	SCIterations:            func(s *Snapshot) *int64 { return &s.SCIterations },
	LinearSolves:            func(s *Snapshot) *int64 { return &s.LinearSolves },
	StageEvals:              func(s *Snapshot) *int64 { return &s.StageEvals },
	Skipped:                 func(s *Snapshot) *int64 { return &s.Skipped },
	Degraded:                func(s *Snapshot) *int64 { return &s.Degraded },
	TimedOut:                func(s *Snapshot) *int64 { return &s.TimedOut },
	Resumed:                 func(s *Snapshot) *int64 { return &s.Resumed },
	BusyNs:                  func(s *Snapshot) *int64 { return &s.BusyNs },
	SendWaitNs:              func(s *Snapshot) *int64 { return &s.SendWaitNs },
	ModelCacheHits:          func(s *Snapshot) *int64 { return &s.ModelCacheHits },
	ModelCacheMisses:        func(s *Snapshot) *int64 { return &s.ModelCacheMisses },
	ModelCacheCorrupt:       func(s *Snapshot) *int64 { return &s.ModelCacheCorrupt },
	CheckpointBakLoads:      func(s *Snapshot) *int64 { return &s.CheckpointBakLoads },
	CheckpointRenameRetries: func(s *Snapshot) *int64 { return &s.CheckpointRenameRetries },
}

// Metrics is a set of atomic cost counters shared by the evaluation
// layers: the runner counts completed and skipped samples, the core/teta
// layers add Successive-Chords iterations, linear (triangular) solves,
// stage evaluations, and — for fault-tolerant statistical runs — per-class
// failure counts and degraded-recovery counts. All methods are safe on a
// nil receiver, so call sites can pass counters through unconditionally.
type Metrics struct {
	counters [numCounters]atomic.Int64
	failures sync.Map // failure class (string) → *atomic.Int64
}

// Snapshot is a consistent-enough copy of the counters for reporting.
// Each int64 field is the Counter of the same name; the field names are
// the JSON keys journals and job results carry.
type Snapshot struct {
	Samples                 int64
	SCIterations            int64
	LinearSolves            int64
	StageEvals              int64
	Skipped                 int64
	Degraded                int64
	TimedOut                int64
	Resumed                 int64
	BusyNs                  int64
	SendWaitNs              int64
	ModelCacheHits          int64
	ModelCacheMisses        int64
	ModelCacheCorrupt       int64
	CheckpointBakLoads      int64
	CheckpointRenameRetries int64
	// Failures maps failure class name → occurrence count (nil when no
	// failure was ever recorded).
	Failures map[string]int64
}

// Add adds n to counter c.
func (m *Metrics) Add(c Counter, n int64) {
	if m != nil {
		m.counters[c].Add(n)
	}
}

// AddFailure counts one per-sample failure of the named class. Classes
// are free-form strings (the core layer passes its FailureClass names);
// each class gets its own atomic counter, created on first use.
func (m *Metrics) AddFailure(class string) {
	if m != nil {
		m.addFailures(class, 1)
	}
}

func (m *Metrics) addFailures(class string, n int64) {
	c, ok := m.failures.Load(class)
	if !ok {
		c, _ = m.failures.LoadOrStore(class, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(n)
}

// Snapshot reads all counters. A nil receiver reads as zero.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	for c, field := range fields {
		*field(&s) = m.counters[c].Load()
	}
	m.failures.Range(func(k, v any) bool {
		if s.Failures == nil {
			s.Failures = map[string]int64{}
		}
		s.Failures[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return s
}

// Merge folds a previously captured snapshot into the counters — how a
// checkpoint-resumed run restores the cost counters its completed prefix
// accumulated in the killed process. Safe on a nil receiver.
func (m *Metrics) Merge(s Snapshot) {
	if m == nil {
		return
	}
	for c, field := range fields {
		m.counters[c].Add(*field(&s))
	}
	for class, n := range s.Failures {
		m.addFailures(class, n)
	}
}
