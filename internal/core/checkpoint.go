package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"lcsim/internal/checkpoint"
	"lcsim/internal/runner"
	"lcsim/internal/stat"
)

// ErrPartial reports that a Limit-bounded sweep stopped on purpose at its
// durable prefix cut: samples [0, Limit) are in the journal, no result was
// produced, and a follow-up run with Resume set continues from the cut.
// Callers executing a sweep in sample-range shards (lcsimd) treat an error
// wrapping ErrPartial as "shard done, more to go" — every other error is a
// real failure.
var ErrPartial = errors.New("partial run: checkpoint limit reached")

// This file holds the path drivers' side of the durable run journal
// (internal/checkpoint): config fingerprints and the driver-specific
// snapshot payloads. The Sweep does the saving and restoring; the
// journal itself stores an opaque json.RawMessage, so the payload
// schemas live here and the checkpoint package stays independent of the
// statistical layers.

// sourcesHash digests the variation-source groups for the config
// fingerprint: a resumed run must use the exact same source list (names,
// sigmas, distributions, targets), or its samples would come from a
// different population than the snapshot's prefix.
func sourcesHash(groups ...[]Source) string {
	h := fnv.New64a()
	for gi, group := range groups {
		fmt.Fprintf(h, "group %d:", gi)
		for _, s := range group {
			fmt.Fprintf(h, "%s|%g|%v|%s|%t|%t;", s.Name, s.Sigma, s.Dist, s.Wire, s.IsDL, s.IsDVT)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// mcFingerprint pins a path-MC run configuration. KeepSamples is folded
// into the kind because a streaming snapshot has no per-sample rows to
// restore a KeepSamples run from (and vice versa the rows would be
// silently dropped). The worker count is deliberately absent: results are
// bit-identical at any parallelism, so resuming at a different worker
// count is safe.
func mcFingerprint(kind string, cfg MCConfig, sources string) checkpoint.Fingerprint {
	if cfg.KeepSamples {
		kind += "+samples"
	}
	return checkpoint.Fingerprint{
		Kind:    kind,
		Seed:    cfg.Seed,
		N:       cfg.N,
		Sampler: cfg.sampler().String(),
		Engine:  ResolveEngine(cfg.Engine),
		Ladder:  strings.Join(cfg.Ladder, ","),
		Policy:  cfg.OnFailure.String(),
		Sources: sources,
	}
}

// mcPayload is the driver-specific state inside a path-MC snapshot: the
// streaming accumulators, the failure report, the cost counters and — for
// KeepSamples runs — the delivered per-sample rows of the prefix (skipped
// indices hold zero rows; the end-of-run compaction removes them exactly
// as in an uninterrupted run).
type mcPayload struct {
	Stream   stat.StreamSummaryState `json:"stream"`
	TotalSC  int                     `json:"total_sc"`
	Failures FailureReport           `json:"failures"`
	Metrics  runner.Snapshot         `json:"metrics"`
	Delays   []float64               `json:"delays,omitempty"`
	Samples  [][]float64             `json:"samples,omitempty"`
}

// isFingerprint pins an importance-sampling yield run: the base plan
// (seed, base N, sampler, engine/ladder, policy, sources) exactly like a
// plain MC run, plus the Proposal field — the delay budget, a hash of
// the mean-shift vector, the σ-inflation and the adaptive-growth knobs.
// Resuming under a different proposal would mix likelihood ratios from
// two different densities, so the checkpoint layer refuses it with
// ErrMismatch naming the "IS proposal" field.
func isFingerprint(cfg ISConfig, sampler Sampler, sources, proposal string) checkpoint.Fingerprint {
	return checkpoint.Fingerprint{
		Kind:     "is-yield",
		Seed:     cfg.Seed,
		N:        cfg.N,
		Sampler:  sampler.String(),
		Engine:   ResolveEngine(cfg.Engine),
		Ladder:   strings.Join(cfg.Ladder, ","),
		Policy:   cfg.OnFailure.String(),
		Sources:  sources,
		Proposal: proposal,
	}
}

// isProposal renders the proposal parameters for the fingerprint: the
// absolute budget, an order-sensitive hash of the shift vector's exact
// bits, the σ-inflation/shift-scale/defensive-mixture knobs and the
// adaptive-growth plan (round-doubling is part of the deterministic
// sampling schedule, so a changed target CI or cap also refuses to
// resume).
func isProposal(budget, inflate, scale, mix, targetCI float64, maxN int, shift []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range shift {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("budget=%.17g shift=%016x inflate=%.17g scale=%.17g mix=%.17g targetci=%.17g maxn=%d",
		budget, h.Sum64(), inflate, scale, mix, targetCI, maxN)
}

// isPayload is the driver-specific state inside an importance-sampling
// snapshot: the self-normalized estimator, the weighted delay summary,
// the failure report and the cost counters.
type isPayload struct {
	Est      stat.ISEstimatorState     `json:"est"`
	Weighted stat.WeightedSummaryState `json:"weighted"`
	TotalSC  int                       `json:"total_sc"`
	Failures FailureReport             `json:"failures"`
	Metrics  runner.Snapshot           `json:"metrics"`
}

// skewPayload is the driver-specific state inside a skew snapshot: the
// delivered prefix of both branch arrival lists and the skews (their
// length is the prefix cut minus the skipped samples), the failure
// report and the cost counters.
type skewPayload struct {
	A        []float64       `json:"a"`
	B        []float64       `json:"b"`
	Skews    []float64       `json:"skews"`
	Failures FailureReport   `json:"failures"`
	Metrics  runner.Snapshot `json:"metrics"`
}
