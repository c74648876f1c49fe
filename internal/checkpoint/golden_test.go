package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenSnapshot is the snapshot whose journal bytes the golden tests
// pin.
func goldenSnapshot() *Snapshot {
	return &Snapshot{
		Fingerprint: Fingerprint{Kind: "mc", Seed: 7, N: 100, Sampler: "lhs", Engine: "teta-fast", Ladder: "teta-exact", Policy: "degrade", Sources: "abc123", Proposal: "is:1"},
		Next:        42,
		State:       json.RawMessage(`{"mean":1.5,"n":42}`),
	}
}

// TestSaveGoldenBytes pins the journal's on-disk format: the
// {"magic","crc32"} header line, the snapshot's field order and the
// trailing newline. A journal written by an older binary of the same
// Version must stay loadable, so these bytes may change only with
// Version.
func TestSaveGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.ck")
	if err := Save(path, goldenSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"magic":"lcsim-checkpoint","crc32":4288387042}` + "\n" +
		`{"version":4,"fingerprint":{"kind":"mc","seed":7,"n":100,"sampler":"lhs","engine":"teta-fast","ladder":"teta-exact","policy":"degrade","sources":"abc123","proposal":"is:1"},"next":42,"state":{"mean":1.5,"n":42}}` + "\n"
	if string(got) != want {
		t.Fatalf("journal bytes moved:\n got %q\nwant %q", got, want)
	}
	if _, _, err := Load(path, nil); err != nil {
		t.Fatalf("golden journal does not load: %v", err)
	}
}

// refuseJournal writes journal bytes an older build wrote for the golden
// snapshot and requires Load to refuse them by their schema version as
// ErrCorruptCheckpoint, the error core.Sweep fails a resume on and
// lcsimd restarts a job from sample 0 on.
func refuseJournal(t *testing.T, version int, journal string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "old.ck")
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Load(path, nil)
	if !errors.Is(err, ErrCorruptCheckpoint) || !strings.Contains(err.Error(), fmt.Sprintf("schema version %d,", version)) {
		t.Fatalf("version-%d journal: got %v, want a schema-version refusal wrapping ErrCorruptCheckpoint", version, err)
	}
}

// TestLoadRefusesVersion1Journal loads the exact bytes a version-1 build
// wrote for the golden snapshot. Version-1 samples came from stage
// transients that ran to TStop, which this build's settle rule ends
// earlier, so resuming one would mix two sets of result bits.
func TestLoadRefusesVersion1Journal(t *testing.T) {
	refuseJournal(t, 1, `{"magic":"lcsim-checkpoint","crc32":845891771}`+"\n"+
		`{"version":1,"fingerprint":{"kind":"mc","seed":7,"n":100,"sampler":"lhs","engine":"teta-fast","ladder":"teta-exact","policy":"degrade","sources":"abc123","proposal":"is:1"},"next":42,"state":{"mean":1.5,"n":42}}`+"\n")
}

// TestLoadRefusesVersion2Journal loads the exact bytes a version-2 build
// wrote for the golden snapshot. Version-2 samples of stages with stacked
// drivers started from a DC point whose internal-node settle could stop
// at its iteration limit, which this build's Newton settle does not, so
// resuming one would mix two sets of result bits.
func TestLoadRefusesVersion2Journal(t *testing.T) {
	refuseJournal(t, 2, `{"magic":"lcsim-checkpoint","crc32":1992621452}`+"\n"+
		`{"version":2,"fingerprint":{"kind":"mc","seed":7,"n":100,"sampler":"lhs","engine":"teta-fast","ladder":"teta-exact","policy":"degrade","sources":"abc123","proposal":"is:1"},"next":42,"state":{"mean":1.5,"n":42}}`+"\n")
}

// TestLoadRefusesVersion3Journal loads the exact bytes a version-3 build
// wrote for the golden snapshot. A version-3 path-MC or SSTA-MC payload
// holds unit-weight streaming statistics without the weight sums this
// build's accumulators need, which encoding/json would restore as zero,
// so resuming one would silently corrupt the moments and quantiles.
func TestLoadRefusesVersion3Journal(t *testing.T) {
	refuseJournal(t, 3, `{"magic":"lcsim-checkpoint","crc32":1252102497}`+"\n"+
		`{"version":3,"fingerprint":{"kind":"mc","seed":7,"n":100,"sampler":"lhs","engine":"teta-fast","ladder":"teta-exact","policy":"degrade","sources":"abc123","proposal":"is:1"},"next":42,"state":{"mean":1.5,"n":42}}`+"\n")
}
