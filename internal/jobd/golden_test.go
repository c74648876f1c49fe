package jobd

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"lcsim/internal/faultinj"
)

// TestRecordGoldenBytes pins the state-record format: the
// {"magic","crc32"} header line followed by the marshaled State, with
// no trailing newline. A queue written by an older binary must keep its
// attempt counts and failure reasons.
func TestRecordGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.rec")
	st := &State{Status: StatusFailed, Attempts: 3, Error: "boom", Updated: time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC)}
	if err := writeRecord(faultinj.OS{}, path, st); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"magic":"lcsimd-record","crc32":1646304382}` + "\n" +
		`{"status":"failed","attempts":3,"error":"boom","updated":"2024-05-06T07:08:09Z"}`
	if string(got) != want {
		t.Fatalf("record bytes moved:\n got %q\nwant %q", got, want)
	}
}
