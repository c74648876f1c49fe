package modelcache

import (
	"os"
	"path/filepath"
	"testing"
)

// TestEntryGoldenBytes pins the entry format: the {"magic","crc32"}
// header line followed by the payload, byte for byte, with no trailing
// newline. A store filled by an older binary must keep serving hits.
func TestEntryGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	payload := []byte("macromodel bytes \x00\x01\xff")
	if _, _, err := s.GetOrCompute(testKey, func() ([]byte, error) { return payload, nil }); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, testKey[:2], testKey+".mm"))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"magic":"lcsim-macromodel","crc32":2216481800}` + "\n" + "macromodel bytes \x00\x01\xff"
	if string(got) != want {
		t.Fatalf("entry bytes moved:\n got %q\nwant %q", got, want)
	}
}
