// Package modelcache is the cross-run content-addressed macromodel
// store: characterized variational pole/residue macromodels
// (poleres.ExtractVar results), keyed by the content hash of the
// VarROM library they were extracted from, persisted on disk so that
// every later process — another subcommand, a warm benchmark rerun, a
// future lcsimd worker fleet — reuses the characterization instead of
// re-running the dense eigendecomposition.
//
// The store is bytes-in/bytes-out: callers (teta.BuildStage via the
// teta.MacroStore interface) own the serialization, the store owns
// integrity and atomicity. Entries follow the internal/checkpoint
// durability recipe — checkpoint.Frame's JSON header line carrying a
// CRC32 (IEEE) over the payload bytes, installed by
// checkpoint.WriteAtomic (temp file, fsync, rename) — so a torn write or
// a flipped bit is detected, the entry deleted, and the model recomputed
// rather than trusted. Concurrent same-key misses within one process are
// single-flighted: one goroutine computes, the rest wait and share the
// bytes.
package modelcache

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"lcsim/internal/checkpoint"
	"lcsim/internal/faultinj"
	"lcsim/internal/runner"
)

// ErrCorruptEntry reports a store entry that failed its integrity check
// (bad magic, CRC mismatch, truncation). Get deletes such entries;
// GetOrCompute recomputes through them transparently.
var ErrCorruptEntry = errors.New("modelcache: entry corrupt")

// magic marks a file as an lcsim macromodel-store entry.
const magic = "lcsim-macromodel"

// Store is an on-disk content-addressed macromodel store. It is safe
// for concurrent use; one Store per process is the intended shape (the
// single-flight dedup works per Store).
type Store struct {
	dir string
	fs  faultinj.FS

	// Metrics, when non-nil, mirrors the hit/miss/corrupt counters into
	// the shared run metrics so they surface in cost reports and job
	// results. Set it before the first GetOrCompute.
	Metrics *runner.Metrics

	// stats holds the store's own ModelCache* counters behind Stats.
	stats runner.Metrics

	mu     sync.Mutex
	flight map[string]*call
}

// call is one in-flight computation other goroutines wait on.
type call struct {
	done chan struct{}
	data []byte
	hit  bool
	err  error
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) { return OpenFS(dir, nil) }

// OpenFS opens a store whose entry I/O goes through f (nil selects the
// real OS) — the fault-injection seam chaos tests use to feed the store
// torn writes, ENOSPC and corrupt reads without touching real disks.
func OpenFS(dir string, f faultinj.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("modelcache: empty directory")
	}
	if f == nil {
		f = faultinj.OS{}
	}
	if err := f.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelcache: %w", err)
	}
	return &Store{dir: dir, fs: f, flight: map[string]*call{}}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a content key to its entry file, sharded by the first two
// key characters so huge libraries do not pile into one directory.
func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key+".mm")
}

// Stats reports the store's counters.
func (s *Store) Stats() (hits, misses, corrupt int64) {
	st := s.stats.Snapshot()
	return st.ModelCacheHits, st.ModelCacheMisses, st.ModelCacheCorrupt
}

// GetOrCompute returns the payload stored under key, computing and
// storing it on a miss. hit reports whether the bytes came from disk
// (or from another goroutine's concurrent computation of the same key).
// A corrupt entry is deleted and recomputed. compute errors are
// returned to every waiter and nothing is stored (no negative caching:
// a transient failure must not poison the key). Store I/O errors on
// write-back are swallowed — the computed bytes are still returned, the
// cache is an accelerator, never a correctness dependency.
func (s *Store) GetOrCompute(key string, compute func() ([]byte, error)) (data []byte, hit bool, err error) {
	return s.GetOrComputeCtx(context.Background(), key, compute)
}

// GetOrComputeCtx is GetOrCompute with a cancellation point for waiters:
// a goroutine blocked on another goroutine's in-flight computation of
// the same key returns ctx.Err() as soon as ctx is done, so one hung
// extraction cannot strand every concurrent job that shares the key. The
// leader itself is not interrupted (its compute closure owns its own
// cancellation), and an abandoned wait neither consumes nor poisons the
// eventual result — later callers still share it.
func (s *Store) GetOrComputeCtx(ctx context.Context, key string, compute func() ([]byte, error)) (data []byte, hit bool, err error) {
	s.mu.Lock()
	if c, ok := s.flight[key]; ok {
		s.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if c.err == nil {
			// Shared results count as hits: the extraction ran once.
			s.count(runner.ModelCacheHits)
			return c.data, true, nil
		}
		return nil, false, c.err
	}
	c := &call{done: make(chan struct{})}
	s.flight[key] = c
	s.mu.Unlock()

	defer func() {
		c.data, c.hit, c.err = data, hit, err
		s.mu.Lock()
		delete(s.flight, key)
		s.mu.Unlock()
		close(c.done)
	}()

	if data, err := s.read(key); err == nil {
		s.count(runner.ModelCacheHits)
		return data, true, nil
	} else if errors.Is(err, ErrCorruptEntry) {
		s.count(runner.ModelCacheCorrupt)
		s.fs.Remove(s.path(key))
	}
	data, err = compute()
	if err != nil {
		return nil, false, err
	}
	s.count(runner.ModelCacheMisses)
	s.write(key, data)
	return data, false, nil
}

// count adds one to counter c of the store and of the mirrored Metrics.
func (s *Store) count(c runner.Counter) {
	s.stats.Add(c, 1)
	s.Metrics.Add(c, 1)
}

// read loads and verifies one entry. A missing entry returns the
// underlying fs.ErrNotExist; anything else unreadable wraps
// ErrCorruptEntry.
func (s *Store) read(key string) ([]byte, error) {
	buf, err := s.fs.ReadFile(s.path(key))
	if err != nil {
		return nil, err
	}
	body, err := checkpoint.Unframe(magic, buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptEntry, key, err)
	}
	return body, nil
}

// write stores one entry with checkpoint.WriteAtomic. Errors are
// dropped (see GetOrCompute) — a read-only or full cache directory
// degrades to cache-off behavior.
func (s *Store) write(key string, body []byte) {
	p := s.path(key)
	if err := s.fs.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return
	}
	_ = checkpoint.WriteAtomic(s.fs, p, checkpoint.Frame(magic, body), nil)
}

// Bound is a context-bound view of a Store: it satisfies the structural
// teta.MacroStore interface (whose GetOrCompute carries no context) while
// still honoring the bound context's cancellation for single-flight
// waiters. Each lcsimd shard attempt binds the shared per-process Store
// to its own attempt context, so a watchdog-canceled attempt unblocks
// immediately even when it is parked on another job's extraction.
type Bound struct {
	s   *Store
	ctx context.Context
}

// Bind returns a view of s whose waiters honor ctx.
func (s *Store) Bind(ctx context.Context) *Bound { return &Bound{s: s, ctx: ctx} }

// GetOrCompute implements teta.MacroStore through the bound context.
func (b *Bound) GetOrCompute(key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	return b.s.GetOrComputeCtx(b.ctx, key, compute)
}
