package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSnap(next int) *Snapshot {
	state, _ := json.Marshal(map[string]any{"mean": 1.5, "n": next})
	return &Snapshot{
		Fingerprint: Fingerprint{Kind: "mc", Seed: 7, N: 100, Sampler: "lhs", Engine: "teta-fast", Policy: "skip", Sources: "abc123"},
		Next:        next,
		State:       state,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	want := testSnap(42)
	if err := Save(path, want, nil); err != nil {
		t.Fatal(err)
	}
	got, fromBak, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fromBak {
		t.Fatal("fresh snapshot should not come from .bak")
	}
	if got.Version != Version || got.Next != 42 || got.Fingerprint != want.Fingerprint {
		t.Fatalf("round trip mangled the snapshot: %+v", got)
	}
	if string(got.State) != string(want.State) {
		t.Fatalf("state payload mangled: %s vs %s", got.State, want.State)
	}
}

func TestLoadMissing(t *testing.T) {
	_, _, err := Load(filepath.Join(t.TempDir(), "nope.ckpt"), nil)
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint should surface fs.ErrNotExist, got %v", err)
	}
	if errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatal("a missing file is not a corrupt file")
	}
}

// TestRotationKeepsPreviousGeneration checks the second Save rotates the
// first snapshot to .bak.
func TestRotationKeepsPreviousGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, testSnap(10), nil); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, testSnap(20), nil); err != nil {
		t.Fatal(err)
	}
	cur, _, err := Load(path, nil)
	if err != nil || cur.Next != 20 {
		t.Fatalf("current generation: next=%v err=%v", cur, err)
	}
	bak, err := loadOne(BakPath(path))
	if err != nil || bak.Next != 10 {
		t.Fatalf("rotated generation: next=%v err=%v", bak, err)
	}
}

// TestCorruptFallsBackToBak covers the acceptance criterion: a snapshot
// truncated or bit-flipped on disk is detected and the .bak generation
// is used instead.
func TestCorruptFallsBackToBak(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"bit-flip": func(b []byte) []byte {
			// Flip a bit inside the payload, past the envelope header.
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x10
			return c
		},
		"truncate": func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":  func([]byte) []byte { return []byte("not a checkpoint") },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := Save(path, testSnap(10), nil); err != nil {
				t.Fatal(err)
			}
			if err := Save(path, testSnap(20), nil); err != nil {
				t.Fatal(err)
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			// The corrupt primary must be detected...
			if _, err := loadOne(path); err == nil || !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("corrupt primary not detected: %v", err)
			}
			// ...and Load must recover the previous generation.
			snap, fromBak, err := Load(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !fromBak || snap.Next != 10 {
				t.Fatalf("expected .bak generation (next=10), got next=%d fromBak=%v", snap.Next, fromBak)
			}
		})
	}
}

// TestBothGenerationsCorrupt checks the typed error surfaces when no
// good generation remains.
func TestBothGenerationsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, testSnap(10), nil); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, testSnap(20), nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, BakPath(path)} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := Load(path, nil)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("expected an error wrapping ErrCorruptCheckpoint, got %v", err)
	}
}

// TestVersionRejected checks a future-schema snapshot is refused rather
// than misread.
func TestVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	s := testSnap(5)
	s.Version = Version + 1
	if err := Save(path, s, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := loadOne(path); err == nil || !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("future schema version should be rejected, got %v", err)
	}
}

func TestFingerprintCheck(t *testing.T) {
	live := testSnap(0).Fingerprint
	if err := live.Check(live); err != nil {
		t.Fatalf("identical fingerprints must pass: %v", err)
	}
	cases := map[string]Fingerprint{
		"seed":    {Kind: "mc", Seed: 8, N: 100, Sampler: "lhs", Engine: "teta-fast", Policy: "skip", Sources: "abc123"},
		"n":       {Kind: "mc", Seed: 7, N: 99, Sampler: "lhs", Engine: "teta-fast", Policy: "skip", Sources: "abc123"},
		"sampler": {Kind: "mc", Seed: 7, N: 100, Sampler: "halton", Engine: "teta-fast", Policy: "skip", Sources: "abc123"},
		"engine":  {Kind: "mc", Seed: 7, N: 100, Sampler: "lhs", Engine: "teta-exact", Policy: "skip", Sources: "abc123"},
		"sources": {Kind: "mc", Seed: 7, N: 100, Sampler: "lhs", Engine: "teta-fast", Policy: "skip", Sources: "zzz"},
		"kind":    {Kind: "skew", Seed: 7, N: 100, Sampler: "lhs", Engine: "teta-fast", Policy: "skip", Sources: "abc123"},
		"proposal": {Kind: "mc", Seed: 7, N: 100, Sampler: "lhs", Engine: "teta-fast", Policy: "skip", Sources: "abc123",
			Proposal: "budget=1e-9 shift=cafe inflate=1.2"},
	}
	for name, snap := range cases {
		if err := live.Check(snap); err == nil || !errors.Is(err, ErrMismatch) {
			t.Fatalf("%s mismatch not refused: %v", name, err)
		}
	}
}

// TestFingerprintProposalNamed pins the refusal message for a changed IS
// proposal: the existing ErrMismatch flow must name the proposal field so
// the operator knows the budget/shift/inflation — not the sampling plan —
// is what moved.
func TestFingerprintProposalNamed(t *testing.T) {
	live := testSnap(0).Fingerprint
	live.Kind = "is-yield"
	live.Proposal = "budget=1.00e-09 shift=0123abcd inflate=1.2"
	snap := live
	snap.Proposal = "budget=1.10e-09 shift=0123abcd inflate=1.2"
	err := live.Check(snap)
	if err == nil || !errors.Is(err, ErrMismatch) {
		t.Fatalf("changed proposal not refused: %v", err)
	}
	if !strings.Contains(err.Error(), "IS proposal") {
		t.Fatalf("refusal must name the IS proposal field, got: %v", err)
	}
	// An empty proposal on both sides (plain drivers, pre-IS snapshots)
	// still matches.
	live.Proposal, snap.Proposal = "", ""
	if err := live.Check(snap); err != nil {
		t.Fatalf("empty proposals must pass: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Fatal("nil config (checkpointing disabled) must validate")
	}
	if err := (&Config{}).Validate(); err == nil {
		t.Fatal("empty path must be rejected")
	}
	if err := (&Config{Path: "x", Every: -1}).Validate(); err == nil {
		t.Fatal("negative Every must be rejected")
	}
}
