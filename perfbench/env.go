package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"blastlan/internal/udplan"
)

// envStamp records the host a result was measured on.
type envStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Tier       string `json:"tier"` // datapath tier a blastcp-configured endpoint engages
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_revision"`
	SourceHash string `json:"source_sha256"` // of the program's Go sources, for checkouts without git
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func stampEnv(root, workload string, seed int64) envStamp {
	return envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernelRelease(),
		Tier:       probeTier(),
		GoVersion:  runtime.Version(),
		GitRev:     gitRevision(root),
		SourceHash: sourceHash(root),
		Workload:   workload,
		Seed:       seed,
	}
}

// probeTier reports the tier a client endpoint configured like blastcp's
// engages, so a fallback from GSO shows in every result.
func probeTier() string {
	e, err := udplan.Dial("127.0.0.1:9")
	if err != nil {
		return "unavailable: " + err.Error()
	}
	defer e.Close()
	e.SetSocketBuffers(sockBuf)
	e.SetBatch(batch)
	return e.Tier().String()
}

func gitRevision(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the Go sources and go.mod of the module at root,
// skipping hidden directories and the benchmark's own module.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
