package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"shangrila/internal/driver"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	for _, tc := range []struct {
		xs    []float64
		share float64
		want  float64
	}{
		{nil, 0.1, 0},
		{[]float64{3, 1, 2}, 0.1, 2}, // fewer than ten: nothing dropped
		{[]float64{9, 1, 1, 1, 1, 1, 1, 1, 1, 0}, 0.1, 1}, // one dropped from each end
		{[]float64{4, 1, 3, 2}, 0.25, 2.5},
	} {
		if got := trimmedMean(tc.xs, tc.share); got != tc.want {
			t.Errorf("trimmedMean(%v, %v) = %v, want %v", tc.xs, tc.share, got, tc.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, p   int
		want   float64
		wantOK bool
	}{
		{100, 90, 90, true},   // 10 samples beyond
		{99, 90, 90, false},   // 9 beyond
		{1000, 99, 990, true}, // 10 beyond
		{999, 99, 990, false},
		{20, 50, 10, true},
	} {
		got, ok := percentile(seq(tc.n), float64(tc.p))
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %d) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); got < 3.9999 || got > 4.0001 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

// setOutDir points the run's output files at a temporary directory.
func setOutDir(t *testing.T) {
	saved := outDir
	outDir = t.TempDir()
	t.Cleanup(func() { outDir = saved })
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSanitizePassNames(t *testing.T) {
	if got := sanitize("inline+scalar"); got != "inline_scalar" {
		t.Errorf(`sanitize("inline+scalar") = %q`, got)
	}
	if got := sanitize("agg-opt"); got != "agg-opt" {
		t.Errorf(`sanitize("agg-opt") = %q`, got)
	}
	for _, p := range driver.PassNames() {
		for _, name := range []string{"pass." + sanitize(p) + ".ms", "pass." + sanitize(p) + ".instrs_out"} {
			if !metricName.MatchString(name) {
				t.Errorf("pass %q gives invalid metric name %q", p, name)
			}
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sim", Start: 30, End: 60}, // overlaps the first child
		{ID: 4, Parent: 3, Name: "load", Start: 35, End: 45},
		{ID: 5, Name: "run", Rep: 1, Start: 0, End: 1000}, // another repetition
	}
	got := selfTimes(spans, 0)
	want := map[string]int64{"run": 50, "sim": 30 + 20, "load": 10}
	for name, w := range want {
		if int64(got[name]) != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestDeterminismCheckerFlagsChangedSimValue(t *testing.T) {
	var a, b fingerprint
	a.add("l3switch +SWC: gbps %v tx %d", 2.0123, 100)
	b.add("l3switch +SWC: gbps %v tx %d", 2.0124, 100)
	if err := diffFingerprints(a.String(), a.String()); err != nil {
		t.Fatalf("identical output flagged: %v", err)
	}
	if err := diffFingerprints(a.String(), b.String()); err == nil || !strings.Contains(err.Error(), "2.0124") {
		t.Fatalf("changed gbps not flagged: %v", err)
	}

	// Across runs: the first run stores, a later one compares.
	path := filepath.Join(t.TempDir(), "fp", "w-seed1.txt")
	if err := checkStored(path, a.String()); err != nil {
		t.Fatalf("first store: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("first run stored nothing: %v", err)
	}
	if err := checkStored(path, a.String()); err != nil {
		t.Fatalf("same output flagged: %v", err)
	}
	if err := checkStored(path, b.String()); err == nil {
		t.Fatal("changed output across runs not flagged")
	}

	// Across repetitions: a repetition that differs counts as a failure.
	setOutDir(t)
	c := &runCtx{led: &ledger{}}
	checkRepeats(c, &workloadDef{name: "w"}, options{seed: 1}, "digest", []*repResult{{fp: a}, {fp: a}, {fp: b}})
	if c.led.failed != 1 || c.led.attempted != 3 {
		t.Fatalf("ledger after one changed repetition: %d of %d failed", c.led.failed, c.led.attempted)
	}
}

// TestForcedFailureCounts runs a workload whose second repetition fails:
// the failure is counted, the result says so, and the exit code is not 0.
func TestForcedFailureCounts(t *testing.T) {
	setOutDir(t)
	calls := 0
	w := &workloadDef{
		name: "forced-failure",
		rep: func(c *runCtx, tr *tracer) (*repResult, error) {
			calls++
			if calls == 2 {
				return nil, errors.New("forced")
			}
			r := newRep(tr)
			r.setup, r.run, r.allocMB = hostTime{0.1, 0.1}, hostTime{0.2, 0.2}, 1
			r.sim["sim_gbps"], r.sim["sim_accesses_per_pkt"] = 1, 1
			r.fp.add("same")
			return r, nil
		},
		check:  func(c *runCtx, _ *repResult) { c.led.note("output check", nil) },
		enough: func([]*repResult) bool { return true },
	}
	saved := workloads
	workloads = append(append([]*workloadDef{}, saved...), w)
	defer func() { workloads = saved }()

	var out bytes.Buffer
	code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", "1"}, &out, &out)
	if code == 0 {
		t.Errorf("exit code 0 after a failure")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("result correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
	// repetitions 0 and 1, one cross-run check, one output check
	if res.Attempted != 4 {
		t.Errorf("attempted = %d, want 4", res.Attempted)
	}
	if !regexp.MustCompile(`failed_frac +0.25 ratio \(1 of 4 operations\)`).MatchString(out.String()) {
		t.Errorf("failed_frac not printed as 1 of 4:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, command has %v", names, want)
	}
	if len(doc.EndToEnd) != len(e2eUnits) {
		t.Fatalf("%d end-to-end metrics, command prints %d", len(doc.EndToEnd), len(e2eUnits))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != e2eUnits[i].name || m.Unit != e2eUnits[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, command prints %s %s", i, m.Name, m.Unit, e2eUnits[i].name, e2eUnits[i].unit)
		}
	}
	if len(doc.PerLayer) != len(layerNames) {
		t.Fatalf("%d per-layer metrics, command prints %d", len(doc.PerLayer), len(layerNames))
	}
	for i, m := range doc.PerLayer {
		if m.Name != layerNames[i] || m.Unit != unitOf(m.Name) {
			t.Errorf("per_layer[%d] = %s %s, command prints %s %s", i, m.Name, m.Unit, layerNames[i], unitOf(layerNames[i]))
		}
		if !metricName.MatchString(m.Name) {
			t.Errorf("invalid metric name %q", m.Name)
		}
	}
	for _, name := range spanMetric {
		found := false
		for _, l := range layerNames {
			found = found || l == name
		}
		if !found {
			t.Errorf("span metric %s is not a per-layer metric", name)
		}
	}
}
