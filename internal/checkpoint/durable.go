package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"lcsim/internal/faultinj"
)

// The durable-file recipe shared by the run journal, the model cache
// (internal/modelcache) and the lcsimd queue (internal/jobd): Frame a
// body under a CRC header, then WriteAtomic it into place.

// header is the first line of a framed file. The rest of the file is the
// body, byte for byte; CRC32 (IEEE) covers exactly those bytes, so any
// truncation or bit flip is detected before the body is trusted. The
// two-part layout exists because the CRC must cover the bytes as
// written: nesting the body inside a JSON envelope lets the encoder
// re-format (indent/compact/escape) it, which silently diverges from the
// checksummed form.
type header struct {
	Magic string `json:"magic"`
	CRC32 uint32 `json:"crc32"`
}

// Frame returns the header line {"magic":…,"crc32":…} for body, a
// newline, then body. The result has room for one more byte, so a caller
// can append a trailing newline without copying.
func Frame(magic string, body []byte) []byte {
	hdr, _ := json.Marshal(header{Magic: magic, CRC32: crc32.ChecksumIEEE(body)}) // a string and a uint32 always marshal
	buf := make([]byte, 0, len(hdr)+len(body)+2)
	return append(append(append(buf, hdr...), '\n'), body...)
}

// Unframe checks a Frame'd buffer — the header line, its magic and the
// CRC of everything after it — and returns the body. The error says what
// failed; callers wrap it in their own corruption sentinel.
func Unframe(magic string, buf []byte) ([]byte, error) {
	nl := bytes.IndexByte(buf, '\n')
	if nl < 0 {
		return nil, errors.New("missing header line")
	}
	var hdr header
	if err := json.Unmarshal(buf[:nl], &hdr); err != nil || hdr.Magic != magic {
		return nil, errors.New("bad header")
	}
	body := buf[nl+1:]
	if got := crc32.ChecksumIEEE(body); got != hdr.CRC32 {
		return nil, fmt.Errorf("CRC32 %08x, want %08x", got, hdr.CRC32)
	}
	return body, nil
}

// WriteAtomic writes data to a temp file in path's directory through
// f, fsyncs and closes it, then calls install(tmp, path) to move it
// into place; a nil install renames it over path. A crash at any instant
// leaves the old file or the new one at path, never a torn one, and the
// temp file is removed whenever the install does not happen.
func WriteAtomic(f faultinj.FS, path string, data []byte, install func(tmp, path string) error) error {
	tmp, err := f.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer f.Remove(tmpName) // no-op after a successful install
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close %s: %w", tmpName, err)
	}
	if install != nil {
		return install(tmpName, path)
	}
	if err := f.Rename(tmpName, path); err != nil {
		return fmt.Errorf("install %s: %w", path, err)
	}
	return nil
}
