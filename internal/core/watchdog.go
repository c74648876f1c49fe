package core

import (
	"context"
	"fmt"
	"time"
)

// watch runs one evaluation of sample i under the per-sample watchdog
// deadline RunConfig.SampleTimeout (0 runs it inline, unwatched).
// Engines are synchronous and cannot be preempted, so on timeout — or
// when ctx is canceled — the evaluation goroutine is abandoned together
// with the scratch sc it was given: abandoned reports that the caller
// must retire sc (never reuse it, never pool it), so the leaked
// evaluation can never race a live one. A timeout is counted on
// Metrics and returns an error wrapping ErrSampleTimeout, which the
// OnFailure policy handles like any other per-sample failure.
func (s *Sweep[T]) watch(ctx context.Context, i int, e *Evaluator[T], sc any) (v T, abandoned bool, err error) {
	d := s.cfg.SampleTimeout
	if d <= 0 {
		v, err = e.Eval(ctx, i, sc)
		return v, false, err
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1) // buffered: the abandoned goroutine never blocks
	go func() {
		v, err := e.Eval(ctx, i, sc)
		ch <- outcome{v, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.v, false, o.err
	case <-ctx.Done():
		return v, true, ctx.Err()
	case <-timer.C:
		s.cfg.Metrics.AddTimeout(1)
		return v, true, fmt.Errorf("engine %s: no result after %v: %w", e.Name, d, ErrSampleTimeout)
	}
}
