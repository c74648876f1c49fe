// Package jobd is the crash-only lcsimd job service: a durable on-disk
// queue of job.Specs, a supervisor that executes each accepted job as a
// chain of checkpoint-journaled sample-range shards on a bounded worker
// pool, and the robustness policy around them — per-shard retry with
// capped exponential backoff, a typed transient/permanent failure split
// on the core failure taxonomy, shard heartbeats with watchdog
// cancellation of stuck attempts, graceful drain on SIGTERM and full
// recovery on restart.
//
// Crash-only means there is exactly one shutdown path: dying. The
// checkpoint journal is the only execution state that matters (it is
// the same journal `lcsim run -checkpoint` writes, so results are
// bit-identical to a direct run at any shard size); the queue's state
// records are an index over it, reconstructible from which files exist.
// A SIGKILL at any instant therefore loses at most the samples since
// the last journal flush — never an accepted job — and SIGTERM is just
// SIGKILL with the courtesy of finishing the flush first.
package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/faultinj"
)

// Status is the lifecycle state of a queued job. There is deliberately
// no "running" status on disk: liveness is a property of a process, not
// of a file, and persisting it would turn every crash into a stale-state
// repair problem. A job is either waiting, done, or permanently failed.
type Status string

const (
	// StatusQueued: accepted, waiting for (more) execution. A job killed
	// mid-shard reads as queued with its journal holding the durable
	// prefix.
	StatusQueued Status = "queued"
	// StatusDone: result.json holds the completed job.Result.
	StatusDone Status = "done"
	// StatusFailed: the supervisor classified the last error as
	// permanent, or transient retries exhausted MaxAttempts.
	StatusFailed Status = "failed"
)

// State is the durable per-job scheduling record. It carries only what
// the journal cannot: the retry budget already consumed and the reason
// a job failed. Everything else (progress, completion) derives from the
// journal and the result file, so a corrupt or missing record self-heals
// to "queued, zero attempts" — the worst case is re-running work, never
// losing it.
type State struct {
	Status   Status `json:"status"`
	Attempts int    `json:"attempts,omitempty"`
	// Error is the terminal failure chain for StatusFailed.
	Error string `json:"error,omitempty"`
	// Updated is informational (status listings), not scheduling input.
	Updated time.Time `json:"updated"`
}

// ErrCorruptRecord reports a state record that failed its integrity
// check. Callers treat it as absent (self-healing), but counting the
// event is how chaos tests assert the torn write actually landed.
var ErrCorruptRecord = errors.New("jobd: state record corrupt")

// recordMagic marks a file as an lcsimd state record.
const recordMagic = "lcsimd-record"

// writeRecord persists st atomically through f: checkpoint.Frame's CRC
// header line over the marshaled State, installed by
// checkpoint.WriteAtomic.
func writeRecord(f faultinj.FS, path string, st *State) error {
	body, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("jobd: marshal state: %w", err)
	}
	if err := checkpoint.WriteAtomic(f, path, checkpoint.Frame(recordMagic, body), nil); err != nil {
		return fmt.Errorf("jobd: %w", err)
	}
	return nil
}

// readRecord loads and verifies one state record. A missing file returns
// the underlying fs.ErrNotExist; anything unreadable wraps
// ErrCorruptRecord.
func readRecord(f faultinj.FS, path string) (*State, error) {
	buf, err := f.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body, err := checkpoint.Unframe(recordMagic, buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptRecord, path, err)
	}
	var st State
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptRecord, path, err)
	}
	return &st, nil
}
