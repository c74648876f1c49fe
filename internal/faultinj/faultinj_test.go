package faultinj

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestScheduleDeterminism: two schedules with the same seed and rules
// make identical decisions; a different seed diverges somewhere.
func TestScheduleDeterminism(t *testing.T) {
	decide := func(seed int64) []string {
		s := NewSchedule(seed).Rule(OpWrite, KindTorn, 0.3).Rule(OpWrite, KindENOSPC, 0.1).Rule(OpRead, KindCorrupt, 0.2)
		out := make([]string, 0, 200)
		for i := 0; i < 100; i++ {
			out = append(out, s.Decide(OpWrite), s.Decide(OpRead))
		}
		return out
	}
	a, b, c := decide(7), decide(7), decide(8)
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %q vs %q", i, a[i], b[i])
		}
		if a[i] != "" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatalf("schedule with p=0.3/0.1/0.2 injected nothing over 200 ops")
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical decision streams")
	}
}

// TestScheduleBudget: the fault budget caps total injections, then the
// schedule goes quiet.
func TestScheduleBudget(t *testing.T) {
	s := NewSchedule(1).Rule(OpWrite, KindTorn, 1.0).SetBudget(3)
	n := 0
	for i := 0; i < 50; i++ {
		if s.Decide(OpWrite) != "" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("budget 3, injected %d", n)
	}
}

// TestRuleAt pins a fault to exactly one op of a class.
func TestRuleAt(t *testing.T) {
	s := NewSchedule(1).RuleAt(OpRename, KindErr, 2)
	var got []int
	for i := 0; i < 5; i++ {
		if s.Decide(OpRename) != "" {
			got = append(got, i)
		}
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("pinned rename.err@2 fired at %v", got)
	}
}

// TestParseSchedule round-trips the -fault flag syntax.
func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("seed=9,max=5,hang.ms=20,write.torn=1.0,rename.err@0=1")
	if err != nil {
		t.Fatal(err)
	}
	if s.seed != 9 || !s.limited || s.Hang() != 20*time.Millisecond {
		t.Fatalf("parsed schedule wrong: %+v", s)
	}
	if k := s.Decide(OpRename); k != KindErr {
		t.Fatalf("pinned rename rule did not fire: %q", k)
	}
	if k := s.Decide(OpWrite); k != KindTorn {
		t.Fatalf("write.torn=1.0 did not fire: %q", k)
	}
	if s2, err := ParseSchedule(""); err != nil || s2 != nil {
		t.Fatalf("empty spec should parse to nil, got %v, %v", s2, err)
	}
	for _, bad := range []string{"nonsense", "write=0.5", "write.torn=2", "seed=x"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) accepted", bad)
		}
	}
}

// TestInjectFSTornWrite: a torn write through the temp-file recipe
// persists only a prefix while reporting success.
func TestInjectFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	fs := Inject(OS{}, NewSchedule(1).RuleAt(OpWrite, KindTorn, 0))
	f, err := fs.CreateTemp(dir, "x*")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("torn write must report success, got n=%d err=%v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after torn write must be silent: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(payload) {
		t.Fatalf("torn write persisted %d of %d bytes", len(got), len(payload))
	}
}

// TestInjectFSENOSPC: injected write failures on the temp-file recipe
// carry both ErrInjected and the real syscall error.
func TestInjectFSENOSPC(t *testing.T) {
	fs := Inject(OS{}, NewSchedule(1).RuleAt(OpWrite, KindENOSPC, 0))
	f, err := fs.CreateTemp(t.TempDir(), "x*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("data")); !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ErrInjected wrapping ENOSPC, got %v", err)
	}
}

// TestInjectFSReadCorrupt: a corrupted read differs from disk but the
// on-disk file is untouched.
func TestInjectFSReadCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("hello world"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := Inject(OS{}, NewSchedule(1).RuleAt(OpRead, KindCorrupt, 0))
	got, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == "hello world" {
		t.Fatalf("corrupt read returned clean bytes")
	}
	disk, _ := os.ReadFile(path)
	if string(disk) != "hello world" {
		t.Fatalf("corrupt read modified the file on disk")
	}
}

// TestNilSafety: nil schedules inject nothing and Inject(nil, nil)
// degrades to the plain OS.
func TestNilSafety(t *testing.T) {
	var s *Schedule
	if s.Decide(OpWrite) != "" || s.Hang() != 0 {
		t.Fatalf("nil schedule must be quiet")
	}
	fs := Inject(nil, nil)
	if _, ok := fs.(OS); !ok {
		t.Fatalf("Inject(nil, nil) = %T, want OS", fs)
	}
}
