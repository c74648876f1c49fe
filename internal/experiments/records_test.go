//go:build amd64

package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"lcsim/internal/iscas"
)

// recordsDigest is the SHA-256 of the float64 bits behind Example 1's
// Table 3 and Figure 3 and the ablation rows. Regenerate it only with a
// change that is meant to move those results, and say why.
const recordsDigest = "455189eadb64c7390e05128e1adf7bf27dd1b91577e647d6d770b4ab4120b5a7"

// statsRecordsDigests are the SHA-256 of the float64 bits behind each
// statistical artifact of record, under the same rule.
var statsRecordsDigests = map[string]string{
	"table5":  "b457b8f4b1e116ca8e0d197313a185655d2c41cf1f418d11caa9d0b0e467e8de",
	"figure7": "5ac3ae1513d4c90c3782f622f7200c818e62e89c88f1b648834b24c42dc1e28d",
	"figure6": "72e78b39acf035e4f26211053a8b7eb067db78b77a0b11c2c69a639e5457a70f",
}

// bitsDigest hashes float64 values by their exact bits.
type bitsDigest struct{ h hash.Hash }

func newBitsDigest() bitsDigest { return bitsDigest{sha256.New()} }

func (d bitsDigest) put(xs ...float64) {
	for _, x := range xs {
		d.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
}

func (d bitsDigest) putInts(ns ...int) {
	for _, n := range ns {
		d.put(float64(n))
	}
}

func (d bitsDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// TestRecordsDigest pins, at full precision, the results `make records`
// checks at printed precision: Example 1's Table 3 (at the p values
// cmd/example1 prints) and Figure 3, and every ablation row. A change to
// the stage simulator's low bits (RunExact, the stability filters, the
// convolver, the DC start, the settle rule) fails here even when every
// printed digit stays put. It is pinned on amd64 only: Go may fuse
// multiply-adds on other architectures, which moves low bits legally.
func TestRecordsDigest(t *testing.T) {
	d := newBitsDigest()
	t3, err := RunTable3(4, []float64{0.05, 0.06, 0.08, 0.09, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t3.Rows {
		d.put(r.P, r.UnstablePole)
		d.putInts(r.NumUnstable)
	}
	f3, err := RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f3.Series {
		d.put(s.T...)
		d.put(s.V...)
	}
	d.put(f3.MaxErrV, f3.Cross50ErrS)
	a, err := RunAblations()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Chord {
		d.putInts(int(r.Policy))
		d.put(r.ItersPerStep, r.Fall50)
	}
	for _, r := range a.Order {
		d.putInts(r.Order, r.Q)
		d.put(r.CrossErr)
	}
	for _, r := range a.Filter {
		d.put(r.MaxErrV, r.Cross50Err)
	}
	d.put(a.LHSStd, a.PlainStd)
	d.putInts(a.PCAFactors...)

	if got := d.sum(); got != recordsDigest {
		t.Fatalf("records digest %s, want %s: a result behind results/example1.txt or results/ablations.txt moved", got, recordsDigest)
	}
}

// TestStatsRecordsDigest pins, at full precision, the GA and Monte-Carlo
// statistics `make records` checks at printed precision, one digest per
// artifact, at the configurations the commands print: `example3 -table5`
// (every Table-5 circuit, 100 samples, seed 1, 10 elements),
// `example3 -figure7` (its first two circuits) and `example2 -figure6`
// (100 samples, seed 1, 100 µm). amd64 only, as TestRecordsDigest.
func TestStatsRecordsDigest(t *testing.T) {
	o3 := Ex3Options{Samples: 100, Seed: 1, Workers: -1}
	artifacts := []struct {
		name, file string
		put        func(d bitsDigest) error
	}{
		{"table5", "results/example3_table5.txt", func(d bitsDigest) error {
			rows, err := RunTable5(o3, iscas.Table5Set, 10)
			if err != nil {
				return err
			}
			for _, r := range rows {
				d.putInts(r.Stages, r.GASimulations, r.MCSimulations)
				d.put(r.StdDL, r.StdVT, r.GAMeanPs, r.GAStdPs, r.MCMeanPs, r.MCStdPs)
			}
			return nil
		}},
		{"figure7", "results/example3_figure7.txt", func(d bitsDigest) error {
			for _, b := range iscas.Table5Set[:2] {
				f7, err := RunFigure7(o3, b, 10)
				if err != nil {
					return err
				}
				d.put(f7.MCDelays...)
				d.put(f7.GAMean, f7.GAStd)
				d.put(f7.GADelays...)
			}
			return nil
		}},
		{"figure6", "results/example2_figure6.txt", func(d bitsDigest) error {
			f6, err := RunFigure6(Ex2Options{Samples: 100, Seed: 1}, 100)
			if err != nil {
				return err
			}
			d.put(f6.FrameworkDelays...)
			d.put(f6.ReferenceDelays...)
			d.put(f6.KS, f6.MeanErrPct, f6.StdErrPct)
			return nil
		}},
	}
	for _, a := range artifacts {
		t.Run(a.name, func(t *testing.T) {
			d := newBitsDigest()
			if err := a.put(d); err != nil {
				t.Fatal(err)
			}
			if got, want := d.sum(), statsRecordsDigests[a.name]; got != want {
				t.Fatalf("%s digest %s, want %s: a result behind %s moved", a.name, got, want, a.file)
			}
		})
	}
}
