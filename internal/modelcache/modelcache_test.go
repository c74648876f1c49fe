package modelcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

const testKey = "ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12"

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantStats(t *testing.T, s *Store, hits, misses, corrupt int64) {
	t.Helper()
	h, m, c := s.Stats()
	if h != hits || m != misses || c != corrupt {
		t.Fatalf("Stats() = %d/%d/%d, want %d hits, %d misses, %d corrupt", h, m, c, hits, misses, corrupt)
	}
}

// TestMissThenHit: the first lookup computes and stores, the second is
// served from disk, and a fresh Store over the same directory (a new
// process, in effect) hits too.
func TestMissThenHit(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	payload := []byte("macromodel bytes \x00\x01\xff")
	computes := 0
	compute := func() ([]byte, error) { computes++; return payload, nil }

	data, hit, err := s.GetOrCompute(testKey, compute)
	if err != nil || hit || !bytes.Equal(data, payload) {
		t.Fatalf("cold lookup: data=%q hit=%v err=%v", data, hit, err)
	}
	data, hit, err = s.GetOrCompute(testKey, compute)
	if err != nil || !hit || !bytes.Equal(data, payload) {
		t.Fatalf("warm lookup: data=%q hit=%v err=%v", data, hit, err)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	wantStats(t, s, 1, 1, 0)

	// A new Store over the same directory must serve the entry from disk.
	s2 := mustOpen(t, dir)
	data, hit, err = s2.GetOrCompute(testKey, func() ([]byte, error) {
		t.Fatal("cross-process lookup recomputed")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(data, payload) {
		t.Fatalf("cross-store lookup: data=%q hit=%v err=%v", data, hit, err)
	}
	wantStats(t, s2, 1, 0, 0)
}

// TestCorruptEntryRecomputed: a flipped payload bit fails the CRC; the
// entry is counted corrupt, deleted, recomputed and replaced with a
// good one.
func TestCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	payload := []byte("payload to be damaged")
	if _, _, err := s.GetOrCompute(testKey, func() ([]byte, error) { return payload, nil }); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, testKey[:2], testKey+".mm")
	buf, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x01 // flip one payload bit under the CRC
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	data, hit, err := s.GetOrCompute(testKey, func() ([]byte, error) { return payload, nil })
	if err != nil || hit || !bytes.Equal(data, payload) {
		t.Fatalf("lookup through corruption: data=%q hit=%v err=%v", data, hit, err)
	}
	wantStats(t, s, 0, 2, 1)

	// The replacement entry must verify: the next lookup is a clean hit.
	if _, hit, err := s.GetOrCompute(testKey, func() ([]byte, error) { return payload, nil }); err != nil || !hit {
		t.Fatalf("entry not replaced after corruption: hit=%v err=%v", hit, err)
	}
}

// TestTruncatedEntryRecomputed: an entry cut mid-payload (a torn write
// that somehow survived the rename discipline) reads as corrupt.
func TestTruncatedEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	payload := []byte("a payload long enough to truncate meaningfully")
	if _, _, err := s.GetOrCompute(testKey, func() ([]byte, error) { return payload, nil }); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, testKey[:2], testKey+".mm")
	buf, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, buf[:len(buf)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.read(testKey); !errors.Is(err, ErrCorruptEntry) {
		t.Fatalf("read of truncated entry: %v, want ErrCorruptEntry", err)
	}
	data, hit, err := s.GetOrCompute(testKey, func() ([]byte, error) { return payload, nil })
	if err != nil || hit || !bytes.Equal(data, payload) {
		t.Fatalf("lookup through truncation: data=%q hit=%v err=%v", data, hit, err)
	}
	wantStats(t, s, 0, 2, 1)
}

// TestComputeErrorNotCached: a failed extraction propagates to the
// caller, stores nothing (no negative caching) and counts neither hit
// nor miss; a later successful compute populates the entry normally.
func TestComputeErrorNotCached(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	boom := errors.New("extraction failed")
	if _, _, err := s.GetOrCompute(testKey, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("compute error not propagated: %v", err)
	}
	wantStats(t, s, 0, 0, 0)
	if _, err := os.Stat(filepath.Join(dir, testKey[:2], testKey+".mm")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed compute left an entry on disk: %v", err)
	}
	data, hit, err := s.GetOrCompute(testKey, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(data) != "ok" {
		t.Fatalf("retry after failure: data=%q hit=%v err=%v", data, hit, err)
	}
	wantStats(t, s, 0, 1, 0)
}

// TestSingleFlight: concurrent misses on one key run the computation
// exactly once; every other caller waits and shares the bytes (counted
// as hits — the extraction ran once).
func TestSingleFlight(t *testing.T) {
	const waiters = 8
	s := mustOpen(t, t.TempDir())
	var computes atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	payload := []byte("computed once")

	var wg sync.WaitGroup
	results := make([][]byte, waiters+1)
	errs := make([]error, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, errs[0] = s.GetOrCompute(testKey, func() ([]byte, error) {
			computes.Add(1)
			close(entered)
			<-release
			return payload, nil
		})
	}()
	<-entered // the in-flight entry is registered before compute runs
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = s.GetOrCompute(testKey, func() ([]byte, error) {
				computes.Add(1)
				return payload, nil
			})
		}(i)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under concurrent misses, want 1", n)
	}
	for i, r := range results {
		if errs[i] != nil || !bytes.Equal(r, payload) {
			t.Fatalf("caller %d: data=%q err=%v", i, r, errs[i])
		}
	}
	hits, misses, _ := s.Stats()
	if misses != 1 || hits != waiters {
		t.Fatalf("Stats() = %d hits, %d misses; want %d hits, 1 miss", hits, misses, waiters)
	}
}

// TestMetricsMirrored: when a runner.Metrics sink is attached, the
// store's counters surface in its snapshot (that is how they reach cost
// reports and job results).
func TestMetricsMirrored(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Metrics = &runner.Metrics{}
	payload := []byte("pp")
	s.GetOrCompute(testKey, func() ([]byte, error) { return payload, nil }) // miss
	s.GetOrCompute(testKey, func() ([]byte, error) { return payload, nil }) // hit
	p := filepath.Join(dir, testKey[:2], testKey+".mm")
	buf, _ := os.ReadFile(p)
	buf[len(buf)-1] ^= 0x80
	os.WriteFile(p, buf, 0o644)
	s.GetOrCompute(testKey, func() ([]byte, error) { return payload, nil }) // corrupt + miss

	snap := s.Metrics.Snapshot()
	hits, misses, corrupt := s.Stats()
	if snap.ModelCacheHits != hits || snap.ModelCacheMisses != misses || snap.ModelCacheCorrupt != corrupt {
		t.Fatalf("metrics %d/%d/%d diverge from store stats %d/%d/%d",
			snap.ModelCacheHits, snap.ModelCacheMisses, snap.ModelCacheCorrupt, hits, misses, corrupt)
	}
	if hits != 1 || misses != 2 || corrupt != 1 {
		t.Fatalf("Stats() = %d/%d/%d, want 1/2/1", hits, misses, corrupt)
	}
}

// TestDistinctKeysDistinctEntries: different content keys never alias.
func TestDistinctKeysDistinctEntries(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("%02x%s", i, testKey[2:])
		want := []byte{byte(i)}
		data, hit, err := s.GetOrCompute(key, func() ([]byte, error) { return want, nil })
		if err != nil || hit || !bytes.Equal(data, want) {
			t.Fatalf("key %d cold: data=%v hit=%v err=%v", i, data, hit, err)
		}
		data, hit, err = s.GetOrCompute(key, func() ([]byte, error) { return nil, errors.New("recompute") })
		if err != nil || !hit || !bytes.Equal(data, want) {
			t.Fatalf("key %d warm: data=%v hit=%v err=%v", i, data, hit, err)
		}
	}
	wantStats(t, s, 4, 4, 0)
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// TestWaiterHonorsContext: a single-flight waiter parked behind a hung
// computation returns ctx.Err() when its context is canceled — a wedged
// extraction must not strand every concurrent job sharing the key. The
// hung leader's eventual result is still shared with later callers.
func TestWaiterHonorsContext(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	entered := make(chan struct{})
	release := make(chan struct{})
	payload := []byte("slow")

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.GetOrCompute(testKey, func() ([]byte, error) {
			close(entered)
			<-release
			return payload, nil
		})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrComputeCtx(ctx, testKey, func() ([]byte, error) {
			t.Error("canceled waiter ran the computation")
			return nil, nil
		})
		waiterErr <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter park on the flight
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter is still stranded behind the hung computation")
	}

	// The leader finishes unharmed and its result is shared.
	close(release)
	<-leaderDone
	data, hit, err := s.Bind(context.Background()).GetOrCompute(testKey, func() ([]byte, error) {
		t.Error("computed despite a stored entry")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(data, payload) {
		t.Fatalf("post-cancel lookup = (%q, %v, %v)", data, hit, err)
	}
}

// TestBoundStoreIsMacroStore: the context-bound view satisfies the
// structural teta.MacroStore contract.
func TestBoundStoreIsMacroStore(t *testing.T) {
	var _ teta.MacroStore = mustOpen(t, t.TempDir()).Bind(context.Background())
}
