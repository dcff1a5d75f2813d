package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// envInfo is recorded with every result: what ran, where, from which
// sources.
type envInfo struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	Seconds    int    `json:"seconds"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the git revision the binary was built from, when the
	// build saw a git checkout; SourceSHA256 identifies the sources
	// either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func collectEnv(o options) envInfo {
	return envInfo{
		Workload:     o.workload,
		Seed:         o.seed,
		Traced:       o.trace,
		Seconds:      o.seconds,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       commit(),
		SourceSHA256: sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes the Go sources the benchmark is built from, relative
// to the repository root it runs in.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
				files = append(files, path)
			}
			return nil // an unreadable entry leaves the digest short, not the run failed
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
