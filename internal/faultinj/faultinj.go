// Package faultinj is the deterministic fault-injection layer behind
// the framework's chaos tests: an injectable filesystem shim (torn
// writes, ENOSPC, fsync errors, read corruption, rename failures) that
// the durable layers — internal/checkpoint, internal/modelcache, the
// lcsimd job queue — write through, plus a scripted engine fault hook
// (evaluation failures and hangs) installed via core.SetEngineWrapper.
//
// Every injected fault is driven by a Schedule: a seeded, per-op-class
// decision function. The k-th operation of a class fails (or not)
// according to a SplitMix64 hash of (seed, class.kind, k), so a
// single-threaded test replays bit-identically, and a concurrent chaos
// run draws from the same reproducible per-class streams regardless of
// goroutine interleaving. Explicit `class.kind@k` rules pin a fault to
// exactly the k-th op of a class for surgical tests. A schedule's
// fault budget (`max=N`) caps the total injected faults, so a
// retry-until-success loop always converges.
//
// The injected errors wrap ErrInjected (and, where a real syscall error
// is the honest analog, that too — ENOSPC for write failures), so
// victims classify them exactly like the genuine article while tests
// can still assert the fault was synthetic.
package faultinj

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrInjected marks every synthetic fault this package produces.
// errors.Is(err, ErrInjected) distinguishes scripted chaos from real
// I/O trouble in test assertions; production classification must NOT
// special-case it (the whole point is that injected faults take the
// same recovery paths real ones would).
var ErrInjected = errors.New("faultinj: injected fault")

// File is the subset of *os.File the durable write recipe,
// checkpoint.WriteAtomic (temp file, write, fsync, close, rename), needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem seam the durable layers write through. The
// method set mirrors the os functions they use — checkpoint.WriteAtomic
// to write, ReadFile to read back a checkpoint.Frame'd file; OS is the
// passthrough implementation, InjectFS the chaos one.
type FS interface {
	ReadFile(name string) ([]byte, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (os.FileInfo, error)
}

// OS is the real filesystem: every method delegates to package os.
type OS struct{}

func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

// Operation classes and fault kinds understood by Schedule rules. A
// rule names `class.kind`; Decide(class) returns the kind to inject
// ("" = none).
const (
	// OpWrite faults File.Write: KindTorn silently persists only a
	// prefix of the bytes (the classic torn write — detected later by
	// the CRC), KindENOSPC fails with a wrapped syscall.ENOSPC.
	OpWrite = "write"
	// OpSync faults File.Sync with a wrapped syscall.EIO.
	OpSync = "sync"
	// OpRename faults FS.Rename.
	OpRename = "rename"
	// OpRead faults FS.ReadFile: KindCorrupt flips one bit of the
	// returned copy, KindErr fails the read outright.
	OpRead = "read"
	// OpEngine faults scripted engine evaluations (see jobd's chaos
	// engine): KindFail returns an injected evaluation error, KindHang
	// sleeps for the schedule's hang duration before evaluating.
	OpEngine = "engine"

	KindTorn    = "torn"
	KindENOSPC  = "enospc"
	KindErr     = "err"
	KindCorrupt = "corrupt"
	KindFail    = "fail"
	KindHang    = "hang"
)

// rule is one `class.kind` entry: a probability, or a pinned op index.
type rule struct {
	kind string
	prob float64
	at   int // -1 = probabilistic; >= 0 = exactly the at-th op of the class
}

// Schedule is a seeded fault plan. The zero value injects nothing; a
// nil *Schedule is safe everywhere and injects nothing.
type Schedule struct {
	seed int64
	hang time.Duration

	// budget is the remaining fault allowance; negative means unlimited.
	budget   atomic.Int64
	limited  bool
	rules    map[string][]rule // class → rules, kind-sorted for determinism
	mu       sync.Mutex
	counters map[string]*atomic.Int64
}

// NewSchedule builds an empty schedule (no rules, unlimited budget)
// with the given seed; add rules with Rule / RuleAt.
func NewSchedule(seed int64) *Schedule {
	return &Schedule{seed: seed, hang: 50 * time.Millisecond, rules: map[string][]rule{}, counters: map[string]*atomic.Int64{}}
}

// Rule adds a probabilistic rule: each op of class independently
// injects kind with probability p (decided by the seeded per-class
// stream).
func (s *Schedule) Rule(class, kind string, p float64) *Schedule {
	s.rules[class] = append(s.rules[class], rule{kind: kind, prob: p, at: -1})
	s.sortRules(class)
	return s
}

// RuleAt pins kind to exactly the k-th (0-based) op of class.
func (s *Schedule) RuleAt(class, kind string, k int) *Schedule {
	s.rules[class] = append(s.rules[class], rule{kind: kind, at: k})
	s.sortRules(class)
	return s
}

func (s *Schedule) sortRules(class string) {
	rs := s.rules[class]
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].kind < rs[j].kind })
}

// SetBudget caps the total number of injected faults across all
// classes; once spent, the schedule goes quiet (so a supervised
// retry loop always converges). Negative = unlimited.
func (s *Schedule) SetBudget(n int) *Schedule {
	s.limited = n >= 0
	s.budget.Store(int64(n))
	return s
}

// SetHang sets the engine-hang duration (default 50ms).
func (s *Schedule) SetHang(d time.Duration) *Schedule {
	s.hang = d
	return s
}

// Hang returns the engine-hang duration.
func (s *Schedule) Hang() time.Duration {
	if s == nil {
		return 0
	}
	return s.hang
}

// counter returns the op counter of a class.
func (s *Schedule) counter(class string) *atomic.Int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[class]
	if !ok {
		c = new(atomic.Int64)
		s.counters[class] = c
	}
	return c
}

// Decide consumes one op of the class and returns the fault kind to
// inject, or "" for a clean op. Nil-safe.
func (s *Schedule) Decide(class string) string {
	if s == nil {
		return ""
	}
	rs := s.rules[class]
	if len(rs) == 0 {
		return ""
	}
	k := s.counter(class).Add(1) - 1
	for _, r := range rs {
		hit := false
		if r.at >= 0 {
			hit = int64(r.at) == k
		} else if r.prob > 0 {
			hit = unit(s.seed, class+"."+r.kind, k) < r.prob
		}
		if !hit {
			continue
		}
		if s.limited && s.budget.Add(-1) < 0 {
			return "" // budget spent: chaos over
		}
		return r.kind
	}
	return ""
}

// unit maps (seed, label, k) to a uniform value in [0, 1) via a
// SplitMix64-style mix over an FNV-folded label — a pure function, so
// every per-class decision stream replays identically for a seed.
func unit(seed int64, label string, k int64) float64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	z := uint64(seed) ^ h ^ (uint64(k) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// ParseSchedule reads the `-fault` flag syntax: comma-separated
// `key=value` entries.
//
//	seed=42          — the decision-stream seed (default 1)
//	max=50           — total fault budget (default unlimited)
//	hang.ms=100      — engine-hang duration in milliseconds
//	write.torn=0.05  — probabilistic rule: class.kind=probability
//	rename.err@3=1   — pinned rule: class.kind@k (value ignored)
//
// An empty string returns nil (no injection).
func ParseSchedule(spec string) (*Schedule, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	s := NewSchedule(1)
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		key, val, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("faultinj: bad schedule entry %q (want key=value)", ent)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinj: bad seed %q", val)
			}
			s.seed = n
		case "max":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("faultinj: bad max %q", val)
			}
			s.SetBudget(n)
		case "hang.ms":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("faultinj: bad hang.ms %q", val)
			}
			s.SetHang(time.Duration(n) * time.Millisecond)
		default:
			class, kind, ok := strings.Cut(key, ".")
			if !ok {
				return nil, fmt.Errorf("faultinj: unknown schedule key %q", key)
			}
			if kind2, at, pinned := strings.Cut(kind, "@"); pinned {
				k, err := strconv.Atoi(at)
				if err != nil {
					return nil, fmt.Errorf("faultinj: bad pinned op index in %q", key)
				}
				s.RuleAt(class, kind2, k)
				continue
			}
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("faultinj: bad probability %q for %q", val, key)
			}
			s.Rule(class, kind, p)
		}
	}
	return s, nil
}

// InjectFS wraps an FS with schedule-driven faults. Reads can corrupt
// or fail; writes can tear (persist a prefix, report success) or hit
// ENOSPC; fsync and rename can fail. Metadata ops (Stat, MkdirAll,
// Remove) pass through — the recovery paths under test are the data
// ones.
type InjectFS struct {
	FS FS
	S  *Schedule
}

// Inject wraps base (OS{} when nil) with the schedule. A nil schedule
// returns base unwrapped.
func Inject(base FS, s *Schedule) FS {
	if base == nil {
		base = OS{}
	}
	if s == nil {
		return base
	}
	return InjectFS{FS: base, S: s}
}

func (f InjectFS) ReadFile(name string) ([]byte, error) {
	data, err := f.FS.ReadFile(name)
	if err != nil {
		return data, err
	}
	switch f.S.Decide(OpRead) {
	case KindCorrupt:
		if len(data) > 0 {
			data = append([]byte(nil), data...)
			data[len(data)/2] ^= 0x01
		}
	case KindErr:
		return nil, fmt.Errorf("%w: read %s", ErrInjected, name)
	}
	return data, nil
}

func (f InjectFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return file, err
	}
	return &injectFile{File: file, s: f.S}, nil
}

func (f InjectFS) Rename(oldpath, newpath string) error {
	if f.S.Decide(OpRename) == KindErr {
		return fmt.Errorf("%w: rename %s -> %s", ErrInjected, oldpath, newpath)
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f InjectFS) Remove(name string) error                     { return f.FS.Remove(name) }
func (f InjectFS) MkdirAll(path string, perm os.FileMode) error { return f.FS.MkdirAll(path, perm) }
func (f InjectFS) Stat(name string) (os.FileInfo, error)        { return f.FS.Stat(name) }

// injectFile wraps one temp file. A torn write truncates the payload
// and then swallows every later write and the sync — the file looks
// successfully written to its producer, but holds a prefix.
type injectFile struct {
	File
	s    *Schedule
	torn bool
}

func (f *injectFile) Write(p []byte) (int, error) {
	if f.torn {
		return len(p), nil
	}
	switch f.s.Decide(OpWrite) {
	case KindTorn:
		f.torn = true
		if _, err := f.File.Write(p[:len(p)/2]); err != nil {
			return 0, err
		}
		return len(p), nil
	case KindENOSPC:
		return 0, fmt.Errorf("%w: write %s: %w", ErrInjected, f.Name(), syscall.ENOSPC)
	}
	return f.File.Write(p)
}

func (f *injectFile) Sync() error {
	if f.torn {
		return nil
	}
	if f.s.Decide(OpSync) == KindErr {
		return fmt.Errorf("%w: fsync %s: %w", ErrInjected, f.Name(), syscall.EIO)
	}
	return f.File.Sync()
}
