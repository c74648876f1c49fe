package jobd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/faultinj"
	"lcsim/internal/job"
)

// Queue is the durable on-disk job queue. Layout, one directory per
// accepted job under <root>/jobs/<id>/:
//
//	spec.json   — the job.Spec, verbatim (the only file a user needs
//	              to reproduce the run with `lcsim run -spec`)
//	state.rec   — CRC-protected scheduling record (Status/Attempts)
//	journal.ck  — the shard checkpoint journal (+ .bak rotation)
//	result.json — the completed job.Result envelope
//	stdout.txt  — the driver's report text
//
// The id is the short form of the spec's content hash, so enqueueing
// the same statistical run twice is naturally idempotent. All state
// transitions are atomic single-file writes; there is no cross-file
// transaction to tear, because status is *derived*: result.json present
// and parseable beats whatever state.rec says, and an unreadable
// state.rec heals to "queued".
type Queue struct {
	root string
	fs   faultinj.FS
}

// idPattern is what a job id looks like: the first 12 hex digits of the
// spec hash.
var idPattern = regexp.MustCompile(`^[0-9a-f]{12}$`)

// OpenQueue creates (if needed) and opens a queue rooted at dir. f is
// the filesystem for record/spec/result I/O (nil selects the real OS) —
// the fault-injection seam.
func OpenQueue(dir string, f faultinj.FS) (*Queue, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobd: empty queue directory")
	}
	if f == nil {
		f = faultinj.OS{}
	}
	if err := f.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("jobd: %w", err)
	}
	return &Queue{root: dir, fs: f}, nil
}

// Root returns the queue's root directory.
func (q *Queue) Root() string { return q.root }

// Dir returns the directory of one job.
func (q *Queue) Dir(id string) string { return filepath.Join(q.root, "jobs", id) }

// SpecPath/JournalPath/ResultPath/StdoutPath locate the per-job files.
func (q *Queue) SpecPath(id string) string    { return filepath.Join(q.Dir(id), "spec.json") }
func (q *Queue) JournalPath(id string) string { return filepath.Join(q.Dir(id), "journal.ck") }
func (q *Queue) ResultPath(id string) string  { return filepath.Join(q.Dir(id), "result.json") }
func (q *Queue) StdoutPath(id string) string  { return filepath.Join(q.Dir(id), "stdout.txt") }
func (q *Queue) statePath(id string) string   { return filepath.Join(q.Dir(id), "state.rec") }

// DurableCut reads one job's shard journal and returns its prefix cut:
// samples [0, cut) are durable. A job that has not journaled yet has
// cut 0 and no error; a journal with no readable generation returns an
// error wrapping checkpoint.ErrCorruptCheckpoint.
func (q *Queue) DurableCut(id string) (int, error) {
	snap, _, err := checkpoint.Load(q.JournalPath(id), nil)
	if checkpoint.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return snap.Next, nil
}

// dropJournal removes both generations of one job's journal.
func (q *Queue) dropJournal(id string) error {
	for _, p := range []string{q.JournalPath(id), checkpoint.BakPath(q.JournalPath(id))} {
		if err := q.fs.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("jobd: %w", err)
		}
	}
	return nil
}

// JobID derives the queue id of a spec: the first 12 hex digits of its
// content hash.
func JobID(spec *job.Spec) (string, error) {
	h, err := spec.Hash()
	if err != nil {
		return "", err
	}
	return strings.TrimPrefix(h, "sha256:")[:12], nil
}

// Enqueue accepts a spec: assigns its content-derived id, creates the
// job directory, persists spec.json and a queued state record. Accepting
// the same spec again is a no-op returning the existing id (idempotent —
// a client that crashed between enqueue and ack can simply retry).
// Durability note: once Enqueue returns, the job survives SIGKILL.
func (q *Queue) Enqueue(spec *job.Spec) (id string, err error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	id, err = JobID(spec)
	if err != nil {
		return "", err
	}
	if err := q.fs.MkdirAll(q.Dir(id), 0o755); err != nil {
		return "", fmt.Errorf("jobd: %w", err)
	}
	if _, err := q.fs.Stat(q.SpecPath(id)); err == nil {
		return id, nil // already accepted
	}
	buf, err := spec.Marshal()
	if err != nil {
		return "", err
	}
	// Spec first, then the state record: a crash between the two leaves a
	// spec with no record, which State() heals to "queued" — exactly
	// right. The reverse order could enqueue a record with no spec.
	//
	// The spec is the one queue file with no self-healing fallback (a job
	// *is* its spec), so read the written file back through Spec's
	// content-hash check before acking: a torn or silently-corrupting
	// write is retried instead of acknowledged.
	var werr error
	for attempt := 0; attempt < enqueueAttempts; attempt++ {
		if werr = q.writeFileAtomic(q.SpecPath(id), buf); werr != nil {
			continue
		}
		if _, werr = q.Spec(id); werr == nil {
			break
		}
	}
	if werr != nil {
		return "", fmt.Errorf("jobd: enqueue %s: %w", id, werr)
	}
	// The initial record is best-effort: a missing or unwritable record
	// heals to exactly the state it would have carried (queued, zero
	// attempts), so a record-write failure must not fail an enqueue whose
	// spec is already durable.
	_ = q.SetState(id, &State{Status: StatusQueued})
	return id, nil
}

// enqueueAttempts bounds Enqueue's write/verify retry.
const enqueueAttempts = 3

// Jobs lists the accepted job ids, sorted. Directories without a
// readable spec are skipped (a crash during Enqueue's MkdirAll).
func (q *Queue) Jobs() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(q.root, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("jobd: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() || !idPattern.MatchString(e.Name()) {
			continue
		}
		if _, err := q.fs.Stat(q.SpecPath(e.Name())); err != nil {
			continue
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// Spec loads one job's spec and verifies it against the id. The id is
// the spec's content hash, so this is an end-to-end integrity check for
// free: a bit flip that survives JSON parsing (and would otherwise
// silently change the statistics of the run) fails here instead.
func (q *Queue) Spec(id string) (*job.Spec, error) {
	buf, err := q.fs.ReadFile(q.SpecPath(id))
	if err != nil {
		return nil, fmt.Errorf("jobd: %w", err)
	}
	spec, err := job.Parse(buf)
	if err != nil {
		return nil, err
	}
	got, err := JobID(spec)
	if err != nil {
		return nil, err
	}
	if got != id {
		return nil, fmt.Errorf("jobd: %s: content hash %s does not match job id", q.SpecPath(id), got)
	}
	return spec, nil
}

// State derives one job's scheduling state, self-healing over any
// single corrupt or missing file:
//
//   - a parseable result.json means done, whatever the record says
//     (the result write is the commit point);
//   - a missing/corrupt/torn state.rec heals to queued with zero
//     attempts (worst case: re-running work);
//   - a record claiming done without a readable result heals to queued
//     (the crash landed between the two writes).
func (q *Queue) State(id string) (*State, error) {
	if _, err := q.Result(id); err == nil {
		return &State{Status: StatusDone}, nil
	}
	st, err := readRecord(q.fs, q.statePath(id))
	if err != nil || st.Status == StatusDone {
		return &State{Status: StatusQueued}, nil
	}
	return st, nil
}

// SetState persists a scheduling record atomically, stamping Updated.
func (q *Queue) SetState(id string, st *State) error {
	st.Updated = time.Now().UTC()
	return writeRecord(q.fs, q.statePath(id), st)
}

// Result loads one job's completed result envelope. Any unreadable or
// unparseable file reports as an error, which State treats as "not
// done" — a torn result write therefore re-runs the final shard instead
// of serving garbage.
func (q *Queue) Result(id string) (*job.Result, error) {
	buf, err := q.fs.ReadFile(q.ResultPath(id))
	if err != nil {
		return nil, fmt.Errorf("jobd: %w", err)
	}
	var res job.Result
	if err := json.Unmarshal(buf, &res); err != nil {
		return nil, fmt.Errorf("jobd: %s: %w", q.ResultPath(id), err)
	}
	if res.Driver == "" || res.SpecHash == "" {
		return nil, fmt.Errorf("jobd: %s: incomplete result envelope", q.ResultPath(id))
	}
	return &res, nil
}

// PutResult commits a completed job: stdout first (informational), then
// result.json (the commit point), then the record. A crash anywhere in
// between re-runs at most the final shard.
func (q *Queue) PutResult(id string, res *job.Result, stdout []byte) error {
	if err := q.writeFileAtomic(q.StdoutPath(id), stdout); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("jobd: marshal result: %w", err)
	}
	if err := q.writeFileAtomic(q.ResultPath(id), append(buf, '\n')); err != nil {
		return err
	}
	return q.SetState(id, &State{Status: StatusDone})
}

// writeFileAtomic is the temp+fsync+rename recipe through the queue's
// (possibly fault-injected) filesystem.
func (q *Queue) writeFileAtomic(path string, buf []byte) error {
	tmp, err := q.fs.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("jobd: %w", err)
	}
	tmpName := tmp.Name()
	defer q.fs.Remove(tmpName)
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("jobd: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobd: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobd: close %s: %w", tmpName, err)
	}
	if err := q.fs.Rename(tmpName, path); err != nil {
		return fmt.Errorf("jobd: install %s: %w", path, err)
	}
	return nil
}
