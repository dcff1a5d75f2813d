// Command perfbench is the repository's end-to-end benchmark. It drives
// the compiler and simulator layers through their public functions on
// one of three workloads and prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload steady-forward --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 the run alternates untraced and traced repetitions and
// the metrics are the per-layer ones, including the tracing overhead.
// README.md describes the workloads and what each metric should explain.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds what runs leave behind (spans, fingerprints), relative to
// the repository root the benchmark runs from. Tests point it elsewhere.
var outDir = ".bench_build/perfbench"

// maxLoop bounds the repetition loop so a run ends well within three
// minutes even when a slow host cannot reach a workload's sample minimum.
const maxLoop = 100 * time.Second

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// repResult is one repetition: a set-up phase, then the timed phase.
type repResult struct {
	traced bool
	setup  hostTime
	run    hostTime
	// allocMB is heap allocated in the timed phase.
	allocMB float64
	// simCycles and simTime are the simulated chip cycles of the timed
	// phase and the host time spent simulating them.
	simCycles int64
	simTime   hostTime
	// sim holds the simulated end-to-end metrics; a seed fixes them.
	sim map[string]float64
	// recompileMS are the host times of incremental recompiles.
	recompileMS []float64
	// layers holds per-layer counts and, for traced repetitions, times.
	layers map[string]float64
	// compilePassMS sums the pass times of the repetition's
	// driver.CompileIR calls; the compile spans' time minus it is the pass
	// manager's own (compile.self_ms).
	compilePassMS float64
	// fp is the repetition's simulated output; every repetition of a
	// seed must produce the same.
	fp fingerprint
	// check carries what a workload's output checks need from it.
	check any
}

func newRep(tr *tracer) *repResult {
	return &repResult{traced: tr != nil, sim: map[string]float64{}, layers: map[string]float64{}}
}

// runCtx is shared by the repetitions of one run.
type runCtx struct {
	seed uint64
	led  *ledger
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// rep runs one repetition; tr is nil for an untraced one.
	rep func(c *runCtx, tr *tracer) (*repResult, error)
	// check runs the output checks that sit outside the timed phase,
	// given the first repetition.
	check func(c *runCtx, first *repResult)
	// enough reports whether the untraced repetitions so far carry the
	// samples the workload's percentiles need.
	enough func(reps []*repResult) bool
}

var workloads = []*workloadDef{steadyForward, paperSweep, controlChurn}

// e2eUnits are the end-to-end metrics of BENCHMARK.json with their units.
// Their host times are CPU times (hostTime); the wall-clock figures are
// printed beside them.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_gbps", "Gbps"},
	{"sim_accesses_per_pkt", "accesses"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, "|"))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the program sees only inputs generated from it")
	fs.IntVar(&o.seconds, "seconds", 10, "how long to repeat the measured work")
	traceFlag := fs.Int("trace", 0, "1 = per-layer run (alternating traced and untraced repetitions)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1 (got %d)", o.seconds)
	}
	switch *traceFlag {
	case 0, 1:
		o.trace = *traceFlag == 1
	default:
		return o, fmt.Errorf("--trace must be 0 or 1 (got %d)", *traceFlag)
	}
	return o, nil
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	env := collectEnv(o)
	envJSON, _ := json.Marshal(env) // a struct of strings and numbers always marshals
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	c := &runCtx{seed: o.seed, led: &ledger{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	reps := repeat(c, w, o, tr)
	peakRSS := peakRSSMB() // before the output checks, which build machines of their own
	if len(reps) > 0 {
		checkRepeats(c, w, o, env.SourceSHA256, reps)
		w.check(c, reps[0])
	}
	if tr != nil {
		if err := tr.write(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed)), env); err != nil {
			c.led.note("write spans", err)
		}
	}

	var untraced, traced []*repResult
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	fmt.Fprintf(stdout, "%s seed %d: %d repetitions (%d traced)\n", w.name, o.seed, len(reps), len(traced))
	for i, r := range reps {
		fmt.Fprintf(stdout, "  rep %d traced=%v setup_s=%.4f (wall %.4f) run_cpu_s=%.4f (wall %.4f) alloc_mb=%.1f sim_cpu_s=%.4f (wall %.4f)\n",
			i, r.traced, r.setup.cpu, r.setup.wall, r.run.cpu, r.run.wall, r.allocMB, r.simTime.cpu, r.simTime.wall)
	}
	var metrics map[string]float64
	if o.trace {
		metrics = layerMetrics(untraced, traced)
		printLayers(stdout, metrics)
	} else {
		metrics = endToEnd(untraced, peakRSS)
		printEndToEnd(stdout, metrics, untraced, c.led)
	}
	for _, e := range c.led.errs {
		fmt.Fprintf(stdout, "FAILED %s\n", e)
	}
	if err := printResult(stdout, c.led, metrics, o.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if c.led.failed > 0 || len(reps) == 0 {
		return 1
	}
	return 0
}

// repeat runs repetitions until --seconds have passed and the workload
// has the samples it needs. A traced run alternates untraced and traced
// repetitions, starting untraced, and needs two of each.
func repeat(c *runCtx, w *workloadDef, o options, tr *tracer) []*repResult {
	var reps, untraced []*repResult
	nTraced := 0
	start := time.Now()
	for i := 0; ; i++ {
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
			t.rep = i
		}
		r, err := w.rep(c, t)
		if !c.led.note(fmt.Sprintf("repetition %d", i), err) {
			return reps
		}
		reps = append(reps, r)
		if r.traced {
			nTraced++
		} else {
			untraced = append(untraced, r)
		}
		elapsed := time.Since(start)
		done := len(untraced) >= 3 && w.enough(untraced)
		if tr != nil {
			done = len(untraced) >= 2 && nTraced >= 2
		}
		if done && elapsed >= time.Duration(o.seconds)*time.Second {
			return reps
		}
		if elapsed >= maxLoop {
			if !done {
				c.led.note("sample minimum", fmt.Errorf("not reached after %d repetitions in %v", len(reps), elapsed.Round(time.Second)))
			}
			return reps
		}
	}
}

// checkRepeats requires every repetition to reproduce the first one's
// simulated output exactly, and the first one to reproduce the output an
// earlier run of the same workload and seed stored, when it was built
// from the same sources (digest).
func checkRepeats(c *runCtx, w *workloadDef, o options, digest string, reps []*repResult) {
	first := reps[0].fp.String()
	for i, r := range reps[1:] {
		c.led.note(fmt.Sprintf("repetition %d repeats simulated output", i+1), diffFingerprints(first, r.fp.String()))
	}
	path := filepath.Join(outDir, "fingerprints", fmt.Sprintf("%s-seed%d-%.12s.txt", w.name, o.seed, digest))
	c.led.note("simulated output repeats across runs of this seed", checkStored(path, first))
}

// endToEnd computes the BENCHMARK.json end-to-end metrics: host times are
// CPU times summarized by hostSummary over the untraced repetitions,
// alloc_mb is their median, and simulated figures come from the first
// (every repetition is checked to match it).
func endToEnd(reps []*repResult, peakRSS float64) map[string]float64 {
	m := map[string]float64{}
	if len(reps) == 0 {
		return m
	}
	cpu := hostSummary(reps, func(h hostTime) float64 { return h.cpu })
	var alloc []float64
	for _, r := range reps {
		alloc = append(alloc, r.allocMB)
	}
	m["setup_s"] = cpu.setup
	m["run_cpu_s"] = cpu.run
	m["alloc_mb"] = median(alloc)
	m["peak_rss_mb"] = peakRSS
	m["sim_gbps"] = reps[0].sim["sim_gbps"]
	m["sim_accesses_per_pkt"] = reps[0].sim["sim_accesses_per_pkt"]
	return m
}

// hostTrim is the share of repetitions dropped from each end before the
// host figures are averaged. On a shared host the speed of a repetition
// moves between a fast and a slow level for seconds at a time; the
// median of a run's ten or so repetitions can land on either level, while
// a trimmed mean moves with the share of time spent at each and still
// drops a stalled repetition.
const hostTrim = 0.1

// hostFigures are the set-up time, the timed phase's time and the
// simulated Mcycles per host second of a run, each the trimmed mean over
// its repetitions, all read on one clock.
type hostFigures struct{ setup, run, simRate float64 }

func hostSummary(reps []*repResult, on func(hostTime) float64) hostFigures {
	var setup, run, rate []float64
	for _, r := range reps {
		setup = append(setup, on(r.setup))
		run = append(run, on(r.run))
		if s := on(r.simTime); s > 0 {
			rate = append(rate, float64(r.simCycles)/s/1e6)
		}
	}
	return hostFigures{trimmedMean(setup, hostTrim), trimmedMean(run, hostTrim), trimmedMean(rate, hostTrim)}
}

// layerMetrics computes the per-layer metrics: the median over traced
// repetitions of each value, every name of layerNames present, and the
// tracing overhead as the traced median run_cpu_s minus the untraced one.
func layerMetrics(untraced, traced []*repResult) map[string]float64 {
	m := map[string]float64{}
	for _, name := range layerNames {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.layers[name])
		}
		m[name] = median(xs)
	}
	var tRun, uRun []float64
	for _, r := range traced {
		tRun = append(tRun, r.run.cpu)
	}
	for _, r := range untraced {
		uRun = append(uRun, r.run.cpu)
	}
	m["trace.run_cpu_s"] = median(tRun)
	m["trace.untraced_run_cpu_s"] = median(uRun)
	m["trace.overhead_cpu_s"] = m["trace.run_cpu_s"] - m["trace.untraced_run_cpu_s"]
	return m
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func printEndToEnd(w io.Writer, m map[string]float64, reps []*repResult, led *ledger) {
	for _, e := range e2eUnits {
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", e.name, m[e.name], e.unit)
	}
	// The simulator's speed, wall-clock and workload-specific end-to-end
	// metrics: printed, but absent from the result line, which carries
	// only the metrics of BENCHMARK.json.
	if len(reps) > 0 {
		cpu := hostSummary(reps, func(h hostTime) float64 { return h.cpu })
		wall := hostSummary(reps, func(h hostTime) float64 { return h.wall })
		fmt.Fprintf(w, "  %-22s %14.6g Mcycles/s\n", "sim_mcycles_per_cpu_s", cpu.simRate)
		fmt.Fprintf(w, "  %-22s %14.6g s\n", "setup_wall_s", wall.setup)
		fmt.Fprintf(w, "  %-22s %14.6g s\n", "run_s", wall.run)
		fmt.Fprintf(w, "  %-22s %14.6g Mcycles/s\n", "sim_mcycles_per_s", wall.simRate)
		for _, k := range []string{"sim_p50_cycles", "sim_p99_cycles"} {
			if v, ok := reps[0].sim[k]; ok {
				fmt.Fprintf(w, "  %-22s %14.6g cycles\n", k, v)
			}
		}
	}
	var rc []float64
	for _, r := range reps {
		rc = append(rc, r.recompileMS...)
	}
	if len(rc) > 0 {
		p90, ok := percentile(rc, 90)
		tail := ""
		if !ok {
			tail = fmt.Sprintf(" (fewer than %d samples beyond)", minTail)
		}
		fmt.Fprintf(w, "  %-22s %14.6g ms\n", "recompile_p50_ms", median(rc))
		fmt.Fprintf(w, "  %-22s %14.6g ms%s\n", "recompile_p90_ms", p90, tail)
		fmt.Fprintf(w, "  %-22s %14d samples\n", "recompile_samples", len(rc))
	}
	fmt.Fprintf(w, "  %-22s %14.6g ratio (%d of %d operations)\n", "failed_frac", led.failedFrac(), led.failed, led.attempted)
}

func printLayers(w io.Writer, m map[string]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, m[k], unitOf(k))
	}
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "bytes"):
		return "bytes"
	case strings.HasPrefix(name, "sim.ns_per_"):
		return "ns"
	case strings.HasPrefix(name, "sim.acc_per_pkt."):
		return "accesses"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_util"),
		strings.HasPrefix(name, "sim.ctrl_sat."):
		return "ratio"
	}
	return "count"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, led *ledger, m map[string]float64, traced bool) error {
	out := map[string]metricValue{}
	for k, v := range m {
		u := unitOf(k)
		if !traced {
			for _, e := range e2eUnits {
				if e.name == k {
					u = e.unit
				}
			}
		}
		out[k] = metricValue{v, u}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{led.failed == 0, led.attempted, led.failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}
