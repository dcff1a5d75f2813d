// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document. `make bench` pipes the simulator
// benchmark suite through it to produce BENCH_sim.json, which CI uploads
// as an artifact so per-commit ns/op and allocs/op are comparable across
// runs without rerunning anything.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line. NsPerOp, BytesPerOp and
// AllocsPerOp mirror testing.BenchmarkResult; Metrics carries custom
// units reported via b.ReportMetric (e.g. simcycles/s, Gbps@…).
type Benchmark struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Chips is parsed from cluster sub-benchmarks ("…/chips=4") — the
	// multi-NPU line-card size, a different series per chip count.
	Chips int `json:"chips,omitempty"`
	// GOMAXPROCS is the per-benchmark parallelism testing encodes in the
	// name suffix ("BenchmarkFoo-8"); NumCPU is the host's logical CPU
	// count. Recorded per entry so a number measured on a loaded 4-core
	// runner is never compared against a 32-core one as the same series.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
}

// Report is the whole document.
type Report struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	rep := Report{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line, pkg); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseLine parses one result line: name, iteration count, then
// value/unit pairs ("12345 ns/op", "0 allocs/op", "3.000 Gbps@dram8Bx2").
func parseLine(line, pkg string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	// Strip the GOMAXPROCS suffix testing appends ("BenchmarkFoo-8"),
	// keeping its value: it is the parallelism the benchmark ran at.
	name := f[0]
	procs := runtime.GOMAXPROCS(0)
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
			procs = n
		}
	}
	b := Benchmark{Name: name, Package: pkg, Iterations: iters,
		GOMAXPROCS: procs, NumCPU: runtime.NumCPU()}
	for _, elem := range strings.Split(name, "/")[1:] {
		if c, ok := strings.CutPrefix(elem, "chips="); ok {
			if n, err := strconv.Atoi(c); err == nil {
				b.Chips = n
			}
		}
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}
