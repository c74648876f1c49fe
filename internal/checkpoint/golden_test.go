package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSaveGoldenBytes pins the journal's on-disk format: the
// {"magic","crc32"} header line, the snapshot's field order and the
// trailing newline. A journal written by an older binary must stay
// loadable, so these bytes may change only with Version.
func TestSaveGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.ck")
	snap := &Snapshot{
		Fingerprint: Fingerprint{Kind: "mc", Seed: 7, N: 100, Sampler: "lhs", Engine: "teta-fast", Ladder: "teta-exact", Policy: "degrade", Sources: "abc123", Proposal: "is:1"},
		Next:        42,
		State:       json.RawMessage(`{"mean":1.5,"n":42}`),
	}
	if err := Save(path, snap, nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"magic":"lcsim-checkpoint","crc32":845891771}` + "\n" +
		`{"version":1,"fingerprint":{"kind":"mc","seed":7,"n":100,"sampler":"lhs","engine":"teta-fast","ladder":"teta-exact","policy":"degrade","sources":"abc123","proposal":"is:1"},"next":42,"state":{"mean":1.5,"n":42}}` + "\n"
	if string(got) != want {
		t.Fatalf("journal bytes moved:\n got %q\nwant %q", got, want)
	}
	if _, _, err := Load(path, nil); err != nil {
		t.Fatalf("golden journal does not load: %v", err)
	}
}
