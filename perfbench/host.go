package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// hostBlock records where a result came from: CPU count, GOMAXPROCS, the
// Go version, the CPU model, the git revision when the checkout is a git
// repository, and a digest of the sources the benchmark was built from
// (which identifies the code when it is not).
func hostBlock() map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"cpu_model":     cpuModel(),
		"git_rev":       gitRev(),
		"source_sha256": sourceDigest("."),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"recorded_utc":  time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown: " + err.Error()
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev returns the checked-out commit read from .git, or why there is
// none. It reads the files directly rather than running git, so the
// benchmark starts no process and reads nothing outside the checkout.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unavailable (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unavailable (unresolved ref " + ref + ")"
}

// sourceDigest hashes the Go sources and module files of the tree at
// root, skipping hidden directories and build output, so two results
// with equal digests were measured on the same code.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return "unavailable: " + err.Error()
		}
		h.Write([]byte(f + "\x00"))
		h.Write(buf)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
