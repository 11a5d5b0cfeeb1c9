package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"care/internal/machine"
)

var (
	provOnce sync.Once
	prov     map[string]any
)

// provenance tags every record with what produced it: the commit (when
// the checkout is a git repository), a digest of the Go sources and
// module files (always), the toolchain, the machine's parallelism and
// the interpreter tier every workload runs on.
func provenance() map[string]any {
	provOnce.Do(func() {
		commit := "unknown"
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
		prov = map[string]any{
			"commit":        commit,
			"source_sha256": sourceDigest("."),
			"go_version":    runtime.Version(),
			"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
			"nproc":         runtime.NumCPU(),
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"interp_tier":   machine.TierSuperblock.String(),
		}
	})
	return prov
}

// sourceDigest hashes every .go, go.mod and go.sum file under root
// (path and content, in walk order), skipping hidden directories such
// as the build directory. It identifies the code in checkouts that are
// not git repositories.
func sourceDigest(root string) string {
	h := sha256.New()
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
		n := d.Name()
		if !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
