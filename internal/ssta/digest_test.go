//go:build amd64

package ssta

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"lcsim/internal/iscas"
)

// blockSSTADigest is the SHA-256 of the float64 bits TestBlockSSTADigest
// hashes. Regenerate it only with a change that is meant to move block
// SSTA's results, and say why.
const blockSSTADigest = "4cfdad8d9cd2517f512d1334caed7fd8cb4572ad5956f9e625b6bcc9e187ca2d"

// sstaDigest hashes float64 values by their exact bits, and strings by
// their bytes.
type sstaDigest struct{ h hash.Hash }

func (d sstaDigest) put(xs ...float64) {
	for _, x := range xs {
		d.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
}

func (d sstaDigest) str(s string) {
	d.put(float64(len(s)))
	d.h.Write([]byte(s))
}

// putRun hashes one Run: every sink, the chip and the critical sink,
// then the GA of every distinct block in first-seen key order.
func (d sstaDigest) putRun(r *Result) {
	for _, s := range append(append([]SinkResult(nil), r.Sinks...), r.Chip) {
		d.str(s.Net)
		d.put(s.Mean, s.Std, s.Slack, s.Yield)
	}
	d.str(r.CriticalSink)
	for _, m := range modelOrder(r.graph, r.models) {
		d.str(m.Key)
		d.put(m.GA.Mean, m.GA.Std)
		d.put(m.GA.StageCumMean...)
		for _, row := range m.GA.StageCumSens {
			d.put(row...)
		}
	}
}

// TestBlockSSTADigest pins, at full precision, what block SSTA computes:
// Run on s27 at 1 and 4 workers and on s1423 (396 block stages, 61
// distinct) at 2 workers, and RunMC's chip summary on s27. A change to
// how blocks or their stages are characterized, or to the order they are
// handed out in, must leave every bit in place. amd64 only, as the
// records digests in internal/experiments.
func TestBlockSSTADigest(t *testing.T) {
	s1423, ok := iscas.Lookup("s1423")
	if !ok {
		t.Fatal("s1423 not in the benchmark tables")
	}
	big, err := iscas.Load(s1423)
	if err != nil {
		t.Fatal(err)
	}
	s27 := s27Mapped(t)
	d := sstaDigest{sha256.New()}
	for _, run := range []struct {
		c       *iscas.Circuit
		workers int
	}{{s27, 1}, {s27, 4}, {big, 2}} {
		r, err := Run(context.Background(), run.c, testConfig(run.workers))
		if err != nil {
			t.Fatalf("%s at %d workers: %v", run.c.Name, run.workers, err)
		}
		d.putRun(r)
	}
	mc, err := RunMC(context.Background(), s27, testConfig(2), 200)
	if err != nil {
		t.Fatal(err)
	}
	c := mc.Chip
	d.put(float64(c.N), c.Mean, c.Std, c.Min, c.Max, c.Median, c.P05, c.P95)
	if got := hex.EncodeToString(d.h.Sum(nil)); got != blockSSTADigest {
		t.Fatalf("block SSTA digest %s, want %s: a block SSTA result moved", got, blockSSTADigest)
	}
}
