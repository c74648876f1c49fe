// Package checkpoint is the durable run journal behind crash-safe
// statistical sweeps: a versioned, CRC-protected JSON snapshot of a
// run's prefix-consistent state, written atomically (temp file + rename)
// with the previous good snapshot rotated to a .bak fallback. The
// recipe itself — Frame/Unframe for the CRC header, WriteAtomic for the
// temp-file install — is shared with the model cache and the lcsimd
// queue.
//
// The design leans on the framework's determinism contract: sampling is
// a pure function of the sample index (fixed Seed, bit-identical at any
// worker count), so a snapshot never stores pending work — only the
// prefix cut (how many leading samples are complete), the serialized
// streaming-statistics state, and the failure/cost counters. Resuming is
// then re-running indices [Next, N) on top of the restored accumulators,
// and the combined run is bit-identical to an uninterrupted one.
//
// A snapshot also carries a config fingerprint (seed, N, sampler,
// engine/ladder, source-list hash). Load verifies integrity only; the
// driver that resumes must compare fingerprints and refuse a snapshot
// from a different run configuration (ErrMismatch).
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"lcsim/internal/faultinj"
	"lcsim/internal/runner"
)

// fsys is the filesystem every snapshot read/write goes through. The
// default is the real OS; SetFS swaps in a fault-injecting shim
// (internal/faultinj) so chaos tests and `lcsimd -fault` can exercise
// torn writes, ENOSPC, fsync errors and rename failures on the journal
// without touching real disks. Process wiring: set it once at startup
// (or under test), never concurrently with snapshot I/O.
var fsys faultinj.FS = faultinj.OS{}

// SetFS replaces the filesystem behind Save/Load (nil restores the real
// OS) and returns the previous one, so tests can defer the swap back.
func SetFS(f faultinj.FS) faultinj.FS {
	prev := fsys
	if f == nil {
		f = faultinj.OS{}
	}
	fsys = f
	return prev
}

// Version is the snapshot schema version. Load rejects snapshots written
// by a different (future or obsolete) schema. Version 2: stage transients
// end by the settle rule, so a version-1 journal holds samples this build
// would not reproduce bit for bit. Version 3: the DC start settles a
// stacked driver's internal nodes by Newton, which moves the block SSTA
// and SSTA-MC results of circuits with such drivers. Version 4: the
// streaming statistics keep one weighted state per estimator. A
// version-3 path-MC or SSTA-MC payload carries Σx and Σx² but no Σw,
// Σw², Σwx, Σwx², P² weight sums or warm-up weights, and encoding/json
// would restore each missing field as zero rather than fail.
const Version = 4

// ErrCorruptCheckpoint reports a snapshot file that failed its integrity
// check: truncated, bit-flipped (CRC32 mismatch), or not a snapshot at
// all. Load falls back to the .bak rotation before returning it.
var ErrCorruptCheckpoint = errors.New("checkpoint: snapshot corrupt")

// ErrMismatch reports a snapshot whose config fingerprint differs from
// the live run's — resuming it would silently mix statistics from two
// different populations, so drivers refuse instead.
var ErrMismatch = errors.New("checkpoint: config fingerprint mismatch")

// Fingerprint identifies the run configuration a snapshot belongs to.
// Two runs may share a checkpoint if and only if every field matches;
// the worker count is deliberately absent (results are bit-identical at
// any worker count, so resuming at a different parallelism is safe).
type Fingerprint struct {
	// Kind names the driver ("mc", "mc-correlated", "skew", ...).
	Kind string `json:"kind"`
	// Seed/N/Sampler pin the sampling plan.
	Seed    int64  `json:"seed"`
	N       int    `json:"n"`
	Sampler string `json:"sampler"`
	// Engine and Ladder pin the evaluation backend(s); Policy the
	// failure policy (it shapes the skip-set).
	Engine string `json:"engine"`
	Ladder string `json:"ladder"`
	Policy string `json:"policy"`
	// Sources is a hash of the variation-source list (names, sigmas,
	// targets, distributions).
	Sources string `json:"sources"`
	// Proposal pins the importance-sampling proposal for IS drivers
	// (delay budget, shift-vector hash, σ-inflation): resuming an IS run
	// under a different proposal would mix likelihood ratios from two
	// different densities, which is statistically meaningless even when
	// every other field matches. Empty for plain drivers, so pre-IS
	// snapshots (which omit the field) remain loadable.
	Proposal string `json:"proposal,omitempty"`
}

// Check returns ErrMismatch (wrapped, naming the first differing field)
// when the snapshot fingerprint g cannot resume a run fingerprinted f.
func (f Fingerprint) Check(g Fingerprint) error {
	if f == g {
		return nil
	}
	diff := func(field, live, snap string) error {
		return fmt.Errorf("%w: %s is %q in this run but %q in the snapshot", ErrMismatch, field, live, snap)
	}
	switch {
	case f.Kind != g.Kind:
		return diff("driver kind", f.Kind, g.Kind)
	case f.Seed != g.Seed:
		return diff("seed", fmt.Sprint(f.Seed), fmt.Sprint(g.Seed))
	case f.N != g.N:
		return diff("N", fmt.Sprint(f.N), fmt.Sprint(g.N))
	case f.Sampler != g.Sampler:
		return diff("sampler", f.Sampler, g.Sampler)
	case f.Engine != g.Engine:
		return diff("engine", f.Engine, g.Engine)
	case f.Ladder != g.Ladder:
		return diff("ladder", f.Ladder, g.Ladder)
	case f.Policy != g.Policy:
		return diff("failure policy", f.Policy, g.Policy)
	case f.Sources != g.Sources:
		return diff("source list", f.Sources, g.Sources)
	default:
		return diff("IS proposal", f.Proposal, g.Proposal)
	}
}

// Snapshot is one prefix-consistent cut of a statistical run.
type Snapshot struct {
	Version     int         `json:"version"`
	Fingerprint Fingerprint `json:"fingerprint"`
	// Next is the prefix cut: samples [0, Next) are complete (aggregated
	// or recorded as skipped); nothing at or beyond Next is.
	Next int `json:"next"`
	// State is the driver-specific payload (streaming-statistics state,
	// failure report, cost counters), serialized by the driver so this
	// package stays independent of the statistical layers above it.
	State json.RawMessage `json:"state"`
}

// magic marks a file as an lcsim checkpoint.
const magic = "lcsim-checkpoint"

// BakPath is the rotation target: the previous good snapshot of path.
func BakPath(path string) string { return path + ".bak" }

// IsNotExist reports whether err from Load means no snapshot has ever
// been written (as opposed to a corrupt or mismatched one) — the case a
// resuming driver treats as "start from sample 0".
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// renameAttempts bounds the atomic-install rename retry; renameBackoff
// is the initial sleep between attempts (doubled each retry).
const renameAttempts = 3
const renameBackoff = 2 * time.Millisecond

// rename installs a file with a bounded retry: transient failures
// (injected or real — NFS silliness, AV scanners, overlay filesystems)
// are retried with a short doubling backoff, and every retry is
// surfaced as a typed counter on m instead of being silent. m may be
// nil.
func rename(oldpath, newpath string, m *runner.Metrics) error {
	var err error
	for attempt := 0; attempt < renameAttempts; attempt++ {
		if attempt > 0 {
			m.Add(runner.CheckpointRenameRetries, 1)
			time.Sleep(renameBackoff << (attempt - 1))
		}
		if err = fsys.Rename(oldpath, newpath); err == nil {
			return nil
		}
	}
	return err
}

// Save writes snap to path atomically: marshal, frame, write to a temp
// file in the same directory, fsync, then rotate the current snapshot
// (if any) to BakPath and rename the temp file into place. A crash at
// any instant leaves either the old snapshot, the new one, or the old
// one under .bak — never a half-written file that parses. Rename
// retries are counted on m (nil = uncounted).
func Save(path string, snap *Snapshot, m *runner.Metrics) error {
	if snap.Version == 0 {
		snap.Version = Version
	}
	body, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal snapshot: %w", err)
	}
	install := func(tmp, path string) error {
		// Rotate the previous good snapshot to .bak so a corrupt new file
		// (torn disk, bad sector) still leaves a recoverable generation.
		if _, err := fsys.Stat(path); err == nil {
			if err := rename(path, BakPath(path), m); err != nil {
				return fmt.Errorf("rotate %s: %w", path, err)
			}
		}
		if err := rename(tmp, path, m); err != nil {
			return fmt.Errorf("install %s: %w", path, err)
		}
		return nil
	}
	if err := WriteAtomic(fsys, path, append(Frame(magic, body), '\n'), install); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads and verifies the snapshot at path. A corrupt primary file
// (CRC mismatch, truncation, unparseable) falls back to the .bak
// rotation; only when both generations fail does Load return an error
// wrapping ErrCorruptCheckpoint. A missing primary with no .bak returns
// the underlying fs.ErrNotExist so callers can distinguish "never
// checkpointed" from "corrupted". The second return is true when the
// snapshot came from the .bak fallback; that event is also counted on
// m (nil = uncounted) so resumes that survived a bad primary surface
// in cost reports instead of passing silently.
func Load(path string, m *runner.Metrics) (*Snapshot, bool, error) {
	snap, primaryErr := loadOne(path)
	if primaryErr == nil {
		return snap, false, nil
	}
	if os.IsNotExist(primaryErr) {
		if _, bakErr := fsys.Stat(BakPath(path)); os.IsNotExist(bakErr) {
			return nil, false, fmt.Errorf("checkpoint: %s: %w", path, primaryErr)
		}
	}
	bak, bakErr := loadOne(BakPath(path))
	if bakErr == nil {
		m.Add(runner.CheckpointBakLoads, 1)
		return bak, true, nil
	}
	return nil, false, fmt.Errorf("%w: %s unusable (%v) and no good .bak (%v)", ErrCorruptCheckpoint, path, primaryErr, bakErr)
}

// loadOne reads one snapshot generation, verifying CRC and version.
// The CRC covers the body without the trailing newline Save appends.
func loadOne(path string) (*Snapshot, error) {
	buf, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body, err := Unframe(magic, bytes.TrimSuffix(buf, []byte{'\n'}))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptCheckpoint, path, err)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptCheckpoint, path, err)
	}
	if snap.Version != Version {
		return nil, fmt.Errorf("%w: %s: schema version %d, this build reads %d", ErrCorruptCheckpoint, path, snap.Version, Version)
	}
	return &snap, nil
}

// Config enables durable checkpointing on a statistical driver.
type Config struct {
	// Path is the snapshot file. The driver writes it periodically
	// (atomic rename; the previous generation survives as Path+".bak")
	// and once more at the end of the run.
	Path string
	// Every flushes a snapshot each time this many samples complete
	// (default 64). Whatever Every says, the next completed sample after
	// 30 s without a flush triggers one.
	Every int
	// Resume loads the snapshot at Path and continues from its prefix
	// cut instead of starting at sample 0. The snapshot's fingerprint
	// must match the live run (ErrMismatch otherwise); a corrupt primary
	// falls back to Path+".bak".
	Resume bool
	// Limit, when positive and below the sweep's N, stops the sweep once
	// samples [0, Limit) are durable in the journal: the driver writes a
	// final snapshot at Next=Limit and returns an error wrapping
	// core.ErrPartial instead of a (meaningless) partial result. A later
	// run with Resume set — and a higher Limit, or none — continues from
	// the cut. This is the sample-range shard primitive behind lcsimd:
	// because resuming re-evaluates deterministically, a job split into
	// any number of Limit-bounded legs is bit-identical to one
	// uninterrupted run. Requires Resume semantics on the follow-up legs
	// and is meaningless without a journal Path.
	Limit int
}

// Validate checks the config.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.Path == "" {
		return fmt.Errorf("checkpoint: Config.Path must be set")
	}
	if c.Every < 0 {
		return fmt.Errorf("checkpoint: Config.Every must be >= 0, got %d", c.Every)
	}
	if c.Limit < 0 {
		return fmt.Errorf("checkpoint: Config.Limit must be >= 0, got %d", c.Limit)
	}
	return nil
}
