//go:build amd64

package stat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// streamSummaryDigest is the SHA-256 of the Summary bits StreamSummary
// reads on the fixed streams of TestStreamSummaryDigest. Regenerate it
// only with a change that is meant to move the streaming statistics, and
// say why.
const streamSummaryDigest = "9b7d38061ba9345ec07cd0026183cb9d288fcf681465c6e102cbed4869e2fd2c"

// digestStream draws n delay-scale observations from seed; with poison
// set, about one in ten is NaN, +Inf or -Inf.
func digestStream(seed int64, n int, poison bool) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 3e-10 + 2e-11*rng.NormFloat64()
		if !poison {
			continue
		}
		switch rng.Intn(30) {
		case 0:
			xs[i] = math.NaN()
		case 1:
			xs[i] = math.Inf(1)
		case 2:
			xs[i] = math.Inf(-1)
		}
	}
	return xs
}

// putSummary hashes every field of s by its exact bits.
func putSummary(h hash.Hash, s Summary) {
	var b [8]byte
	for _, n := range []int{s.N, s.NonFinite} {
		binary.LittleEndian.PutUint64(b[:], uint64(n))
		h.Write(b[:])
	}
	for _, x := range []float64{s.Mean, s.Std, s.Min, s.Max, s.Median, s.P05, s.P95} {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// TestStreamSummaryDigest pins the bits of StreamSummary's Summary on
// fixed seeded streams: every length through the P² warm-up (0–7), long
// streams, streams carrying NaN and ±Inf, a run whose moments are
// sharded across workers and merged through MergeMoments while its
// quantiles are fed in order through AddQuantiles (path MC's layout),
// and runs resumed from a JSON state round trip at cuts below, at and
// past the warm-up. A change to any estimator's arithmetic, its
// rejection of non-finite values or its checkpoint state fails here. It
// is pinned on amd64 only: Go may fuse multiply-adds on other
// architectures, which moves low bits legally.
func TestStreamSummaryDigest(t *testing.T) {
	h := sha256.New()
	feed := func(xs []float64) *StreamSummary {
		s := NewStreamSummary()
		for _, x := range xs {
			s.Add(x)
		}
		return s
	}

	for n := 0; n <= 7; n++ {
		putSummary(h, feed(digestStream(int64(100+n), n, false)).Summary())
	}
	for i, n := range []int{1000, 20000} {
		putSummary(h, feed(digestStream(int64(200+i), n, false)).Summary())
	}
	for i, n := range []int{3, 7, 50, 5000} {
		putSummary(h, feed(digestStream(int64(300+i), n, true)).Summary())
	}
	putSummary(h, feed([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}).Summary())

	// Sharded: sample i lands on a pseudo-random worker's Moments; the
	// drain feeds the quantiles in delivery order.
	for i, workers := range []int{1, 3, 8} {
		xs := digestStream(int64(400+i), 3000, true)
		pick := rand.New(rand.NewSource(int64(500 + i)))
		shards := make([]Moments, workers)
		s := NewStreamSummary()
		for _, x := range xs {
			shards[pick.Intn(workers)].Add(x)
			s.AddQuantiles(x)
		}
		for k := range shards {
			s.MergeMoments(&shards[k])
		}
		putSummary(h, s.Summary())
	}

	// Resumed: snapshot after k observations, round-trip the state
	// through JSON as the checkpoint journal does, restore into a fresh
	// sink and feed the rest.
	xs := digestStream(600, 2000, true)
	for _, k := range []int{0, 2, 4, 5, 6, 900, 2000} {
		a := feed(xs[:k])
		buf, err := json.Marshal(a.State())
		if err != nil {
			t.Fatal(err)
		}
		var st StreamSummaryState
		if err := json.Unmarshal(buf, &st); err != nil {
			t.Fatal(err)
		}
		b := NewStreamSummary()
		b.Restore(st)
		for _, x := range xs[k:] {
			b.Add(x)
		}
		putSummary(h, b.Summary())
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != streamSummaryDigest {
		t.Fatalf("StreamSummary digest moved:\n got %s\nwant %s", got, streamSummaryDigest)
	}
}
