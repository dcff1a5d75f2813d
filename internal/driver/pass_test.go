package driver_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/opt/soar"
)

// compileApp lowers one benchmark app and runs the pipeline with the given
// configuration (Level/ProfileTrace/Controls are filled in).
func compileApp(t *testing.T, a *apps.App, lvl driver.Level, cfg driver.Config) *driver.Result {
	t.Helper()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Level = lvl
	cfg.ProfileTrace = a.Trace(prog.Types, 7, 256)
	cfg.Controls = a.Controls
	res, err := driver.CompileIR(prog, cfg)
	if err != nil {
		t.Fatalf("%s at %v: %v", a.Name, lvl, err)
	}
	return res
}

// expectedPipeline mirrors the stage table's level predicates: the names
// CompileIR must run at each level, in pipeline order.
func expectedPipeline(lvl driver.Level) []string {
	var names []string
	add := func(name string, on bool) {
		if on {
			names = append(names, name)
		}
	}
	add("profile", true)
	add("inline+scalar", true)
	add("soar", lvl >= driver.LevelPAC)
	add("pac", lvl >= driver.LevelPAC)
	add("aggregate", true)
	add("agg-opt", true)
	add("phr", lvl >= driver.LevelPHR)
	add("swc", lvl >= driver.LevelSWC)
	add("final-opt", true)
	add("codegen", true)
	return names
}

// passNames lists the pass of every Report.Passes row, in order.
func passNames(res *driver.Result) []string {
	var names []string
	for _, pt := range res.Report.Passes {
		names = append(names, pt.Pass)
	}
	return names
}

// TestRegistryOrder pins PassNames: every stage, in pipeline order. The
// per-layer benchmark metrics are named from it.
func TestRegistryOrder(t *testing.T) {
	want := expectedPipeline(driver.LevelSWC) // every stage runs at +SWC
	if got := driver.PassNames(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("PassNames() = %v, want %v", got, want)
	}
}

// TestPipelineForEachLevel checks each level's schedule as CompileIR runs
// it: the Report.Passes rows name exactly the stages enabled at the level.
func TestPipelineForEachLevel(t *testing.T) {
	a := apps.L3Switch()
	for _, lvl := range driver.Levels() {
		res := compileApp(t, a, lvl, driver.Config{VerifyIR: driver.VerifyOff})
		if got, want := passNames(res), expectedPipeline(lvl); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v pipeline = %v, want %v", lvl, got, want)
		}
	}
}

// TestVerifyAfterEveryPassAllAppsAllLevels is the golden invariant: every
// pass of every per-level pipeline leaves the IR verifiable for every
// benchmark application.
func TestVerifyAfterEveryPassAllAppsAllLevels(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, lvl := range driver.Levels() {
				res := compileApp(t, a, lvl, driver.Config{VerifyIR: driver.VerifyOn})
				want := expectedPipeline(lvl)
				if len(res.Report.Passes) != len(want) {
					t.Fatalf("%v: %d pass timings %v, want %d",
						lvl, len(res.Report.Passes), res.Report.Passes, len(want))
				}
				for i, pt := range res.Report.Passes {
					if pt.Pass != want[i] {
						t.Errorf("%v: pass[%d] = %q, want %q", lvl, i, pt.Pass, want[i])
					}
					if pt.Nanos <= 0 {
						t.Errorf("%v: pass %q has no timing", lvl, pt.Pass)
					}
					if pt.InstrsBefore <= 0 || pt.InstrsAfter <= 0 {
						t.Errorf("%v: pass %q sizes %d -> %d", lvl, pt.Pass,
							pt.InstrsBefore, pt.InstrsAfter)
					}
				}
			}
		})
	}
}

// TestPerPassMetricsExposed checks the per-pass report rows: one per
// scheduled pass, each timed, and each with verify time under VerifyOn.
func TestPerPassMetricsExposed(t *testing.T) {
	a := apps.MPLS()
	res := compileApp(t, a, driver.LevelSWC, driver.Config{VerifyIR: driver.VerifyOn})
	if got, want := passNames(res), expectedPipeline(driver.LevelSWC); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("report rows %v, want %v", got, want)
	}
	for _, pt := range res.Report.Passes {
		if pt.Nanos <= 0 {
			t.Errorf("pass %q: nanos %d, want > 0", pt.Pass, pt.Nanos)
		}
		if pt.VerifyNanos <= 0 {
			t.Errorf("pass %q: verify nanos %d with VerifyOn, want > 0", pt.Pass, pt.VerifyNanos)
		}
	}
}

// TestVerifyOffSkips checks the production default: with verification off,
// no verify time is recorded.
func TestVerifyOffSkips(t *testing.T) {
	a := apps.MPLS()
	res := compileApp(t, a, driver.LevelPAC, driver.Config{VerifyIR: driver.VerifyOff})
	for _, pt := range res.Report.Passes {
		if pt.VerifyNanos != 0 {
			t.Errorf("pass %q recorded verify time %d with VerifyOff", pt.Pass, pt.VerifyNanos)
		}
	}
}

// TestDumpIRDeterministic compiles the same app twice with -dump-ir=all
// into buffers: the dumps must be byte-identical run to run.
func TestDumpIRDeterministic(t *testing.T) {
	a := apps.Firewall()
	dump := func() []byte {
		var buf bytes.Buffer
		compileApp(t, a, driver.LevelSWC, driver.Config{
			DumpPass:   "all",
			DumpWriter: &buf,
			DumpPrefix: a.Name,
		})
		return buf.Bytes()
	}
	first, second := dump(), dump()
	if len(first) == 0 {
		t.Fatal("dump produced no output")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("IR dump differs between identical runs (%d vs %d bytes)",
			len(first), len(second))
	}
	for _, name := range expectedPipeline(driver.LevelSWC) {
		header := fmt.Sprintf(";; %s after pass %s\n", a.Name, name)
		if !bytes.Contains(first, []byte(header)) {
			t.Errorf("dump is missing the %q section", strings.TrimSpace(header))
		}
	}
}

// TestDumpSinglePass selects one pass by name and gets exactly one section.
func TestDumpSinglePass(t *testing.T) {
	a := apps.MPLS()
	var buf bytes.Buffer
	compileApp(t, a, driver.LevelPAC, driver.Config{
		DumpPass:   "pac",
		DumpWriter: &buf,
		DumpPrefix: a.Name,
	})
	if got := strings.Count(buf.String(), ";; "+a.Name+" after pass "); got != 1 {
		t.Fatalf("dump has %d sections, want 1:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "after pass pac\n") {
		t.Errorf("dump section is not for the pac pass")
	}
}

// TestVerifierCatchesBrokenPass runs a compile whose IR is corrupted before
// CompileIR and checks that the first pass's post-verification reports it
// with the pass name in the error chain.
func TestVerifierCatchesBrokenPass(t *testing.T) {
	a := apps.MPLS()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one function with an unreachable empty block: execution never
	// sees it (the profile pass still succeeds), but the structural check
	// after the first pass does.
	prog.Funcs[prog.Order[0]].NewBlock()
	_, err = driver.CompileIR(prog, driver.Config{
		Level:        driver.LevelBase,
		ProfileTrace: a.Trace(prog.Types, 7, 8),
		Controls:     a.Controls,
		VerifyIR:     driver.VerifyOn,
	})
	if err == nil {
		t.Fatal("compiling corrupted IR with VerifyOn must fail")
	}
	if !strings.HasPrefix(err.Error(), "after profile: IR verification failed") {
		t.Errorf("error %q does not name the pass and IR verification", err)
	}
	var ve *ir.VerifyError
	if !errors.As(err, &ve) {
		t.Errorf("error %q does not wrap *ir.VerifyError", err)
	}
}

// TestSOARAnnotationsFreshAfterPAC pins the post-PAC SOAR re-analysis. PAC
// moves and widens packet accesses, so the analysis taken before it is
// stale; the aggregate stage analyzes again before cloning the program
// into merged bodies. The final whole program must therefore carry the
// annotations a fresh analysis gives.
func TestSOARAnnotationsFreshAfterPAC(t *testing.T) {
	for _, a := range apps.All() {
		for _, lvl := range driver.Levels()[driver.LevelPAC:] {
			res := compileApp(t, a, lvl, driver.Config{VerifyIR: driver.VerifyOff})
			var got, want bytes.Buffer
			if err := ir.Fprint(&got, res.Prog); err != nil {
				t.Fatal(err)
			}
			fresh := ir.CloneProgram(res.Prog)
			soar.Analyze(fresh)
			if err := ir.Fprint(&want, fresh); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s at %v: whole-program SOAR annotations are stale", a.Name, lvl)
			}
		}
	}
}
