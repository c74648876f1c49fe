package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestMapSkipOrderedDelivery: skipped and delivered samples must arrive
// interleaved in strict index order, with skips going to OnSkip and
// values to the sink.
func TestMapSkipOrderedDelivery(t *testing.T) {
	const n = 200
	for _, workers := range []int{0, 1, 8} {
		var events []int // sample index, negative bit marks a skip
		var skipErrs []error
		m := &Metrics{}
		err := Map(context.Background(), n,
			Options{
				Workers: workers, Metrics: m,
				OnSkip: func(i int, err error) {
					events = append(events, -(i + 1))
					skipErrs = append(skipErrs, err)
				},
			},
			func(_ context.Context, i int) (int, error) {
				if i%3 == 0 {
					return 0, SkipSample(fmt.Errorf("sample %d is bad", i))
				}
				return i, nil
			},
			func(i int, v int) {
				if v != i {
					t.Errorf("sink got %d at index %d", v, i)
				}
				events = append(events, i+1)
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(events) != n {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(events), n)
		}
		for k, e := range events {
			i := e
			if i < 0 {
				i = -i
			}
			if i-1 != k {
				t.Fatalf("workers=%d: event %d carries index %d — delivery is out of order", workers, k, i-1)
			}
			wantSkip := k%3 == 0
			if (e < 0) != wantSkip {
				t.Fatalf("workers=%d: index %d skip=%v, want %v", workers, k, e < 0, wantSkip)
			}
		}
		for _, err := range skipErrs {
			if !errors.Is(err, ErrSkip) {
				t.Fatalf("workers=%d: OnSkip error %v does not match ErrSkip", workers, err)
			}
		}
		if s := m.Snapshot(); s.Skipped != (n+2)/3 || s.Samples != n {
			t.Fatalf("workers=%d: skipped=%d samples=%d", workers, s.Skipped, s.Samples)
		}
	}
}

// TestMapSkipDoesNotAbort: a skip error must not count as a failure —
// the run completes and returns nil even when every sample skips.
func TestMapSkipDoesNotAbort(t *testing.T) {
	skipped := 0
	err := Map(context.Background(), 50,
		Options{Workers: 4, OnSkip: func(int, error) { skipped++ }},
		func(_ context.Context, i int) (int, error) {
			return 0, SkipSample(nil)
		},
		func(int, int) { t.Error("sink must not fire for skipped samples") })
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 50 {
		t.Fatalf("skipped = %d, want 50", skipped)
	}
}

// TestSkipSampleWrapping: SkipSample must expose both the ErrSkip marker
// and the cause chain.
func TestSkipSampleWrapping(t *testing.T) {
	cause := errors.New("underlying cause")
	err := SkipSample(fmt.Errorf("wrapped: %w", cause))
	if !errors.Is(err, ErrSkip) {
		t.Fatal("skip error must match ErrSkip")
	}
	if !errors.Is(err, cause) {
		t.Fatal("skip error must expose its cause chain")
	}
	if !errors.Is(SkipSample(nil), ErrSkip) {
		t.Fatal("nil-cause skip must still match ErrSkip")
	}
}

// TestMapSkipSetWorkerInvariance: the set of skipped indices is a pure
// function of the index, so it must be bit-identical at any worker count.
func TestMapSkipSetWorkerInvariance(t *testing.T) {
	run := func(workers int) []int {
		var skipped []int
		err := Map(context.Background(), 300,
			Options{Workers: workers, OnSkip: func(i int, _ error) { skipped = append(skipped, i) }},
			func(_ context.Context, i int) (int, error) {
				if (i*2654435761)%7 == 0 {
					return 0, SkipSample(fmt.Errorf("bad %d", i))
				}
				return i, nil
			}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return skipped
	}
	ref := run(1)
	if len(ref) == 0 {
		t.Fatal("test needs a nonempty skip-set")
	}
	for _, w := range []int{0, 2, 8} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: skip-set %v != reference %v", w, got, ref)
		}
	}
}

// TestMetricsFailureCounters: per-class counters must be race-safe.
func TestMetricsFailureCounters(t *testing.T) {
	m := &Metrics{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				m.AddFailure("sc-diverged")
				if k%2 == 0 {
					m.AddFailure("singular-gr")
				}
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if len(s.Failures) != 2 || s.Failures["sc-diverged"] != 800 || s.Failures["singular-gr"] != 400 {
		t.Fatalf("failure counts %v", s.Failures)
	}
}
