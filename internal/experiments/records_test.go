//go:build amd64

package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// recordsDigest is the SHA-256 of the float64 bits behind Example 1's
// Table 3 and Figure 3 and the ablation rows. Regenerate it only with a
// change that is meant to move those results, and say why.
const recordsDigest = "455189eadb64c7390e05128e1adf7bf27dd1b91577e647d6d770b4ab4120b5a7"

// TestRecordsDigest pins, at full precision, the results `make records`
// checks at printed precision: Example 1's Table 3 (at the p values
// cmd/example1 prints) and Figure 3, and every ablation row. A change to
// the stage simulator's low bits (RunExact, the stability filters, the
// convolver, the DC start, the settle rule) fails here even when every
// printed digit stays put. It is pinned on amd64 only: Go may fuse
// multiply-adds on other architectures, which moves low bits legally.
func TestRecordsDigest(t *testing.T) {
	h := sha256.New()
	put := func(xs ...float64) {
		for _, x := range xs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	putInts := func(ns ...int) {
		for _, n := range ns {
			put(float64(n))
		}
	}

	t3, err := RunTable3(4, []float64{0.05, 0.06, 0.08, 0.09, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t3.Rows {
		put(r.P, r.UnstablePole)
		putInts(r.NumUnstable)
	}
	f3, err := RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f3.Series {
		put(s.T...)
		put(s.V...)
	}
	put(f3.MaxErrV, f3.Cross50ErrS)
	a, err := RunAblations()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Chord {
		putInts(int(r.Policy))
		put(r.ItersPerStep, r.Fall50)
	}
	for _, r := range a.Order {
		putInts(r.Order, r.Q)
		put(r.CrossErr)
	}
	for _, r := range a.Filter {
		put(r.MaxErrV, r.Cross50Err)
	}
	put(a.LHSStd, a.PlainStd)
	putInts(a.PCAFactors...)

	if got := hex.EncodeToString(h.Sum(nil)); got != recordsDigest {
		t.Fatalf("records digest %s, want %s: a result behind results/example1.txt or results/ablations.txt moved", got, recordsDigest)
	}
}
