package driver_test

import (
	"bytes"
	"reflect"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/profiler"
)

// newSessionFor builds a Session over a fresh lowering of the app.
func newSessionFor(t *testing.T, a *apps.App, lvl driver.Level) *driver.Session {
	t.Helper()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.Config{
		Level:        lvl,
		ProfileTrace: a.Trace(prog.Types, 7, 256),
		Controls:     a.Controls,
		VerifyIR:     driver.VerifyOn,
	}
	s, err := driver.NewSession(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// coldCompile runs a from-scratch CompileIR with the given configuration
// over a fresh lowering of the app.
func coldCompile(t *testing.T, a *apps.App, cfg driver.Config) *driver.Result {
	t.Helper()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ProfileTrace = a.Trace(prog.Types, 7, 256)
	cfg.Metrics = nil
	res, err := driver.CompileIR(prog, cfg)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	return res
}

// deltaFor returns a single-rule policy delta for the app: one route,
// firewall rule, or label entry beyond the boot configuration.
func deltaFor(a *apps.App) driver.Delta {
	switch a.Name {
	case "l3switch":
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "l3switch.add_route", Args: []uint32{0x0b000000, 8, 2}},
		}}
	case "firewall":
		// One more allow rule past the installed set: HTTPS from 10/8 to
		// 192.168/16 (args follow the app's add_rule signature).
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "firewall.add_rule", Args: []uint32{
				6,                      // idx
				0x0a000000, 0xff000000, // src, smask
				0xc0a80000, 0xffff0000, // dst, dmask
				0, 0xffff, // sport range
				443, 443, // dport range
				6, // proto tcp
				1, // action allow
				2, // nh
			}},
		}}
	case "mpls":
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "mplsapp.add_ilm", Args: []uint32{900, 1, 1000, 3}},
		}}
	}
	return driver.Delta{}
}

func dumpIR(t *testing.T, res *driver.Result) []byte {
	t.Helper()
	b, err := res.DumpIR()
	if err != nil {
		t.Fatalf("DumpIR: %v", err)
	}
	return b
}

// TestSessionIncrementalMatchesColdAllAppsAllLevels is the session
// differential: for every app at every optimization level, recompiling a
// single-rule policy delta must produce bit-identical final IR to a cold
// CompileIR of the post-delta configuration, and every compile runs the
// whole pipeline.
func TestSessionIncrementalMatchesColdAllAppsAllLevels(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, lvl := range driver.Levels() {
				s := newSessionFor(t, a, lvl)
				first, err := s.Compile()
				if err != nil {
					t.Fatalf("%v: session compile: %v", lvl, err)
				}

				d := deltaFor(a)
				if len(d.AddControls) == 0 {
					t.Fatalf("no delta defined for %s", a.Name)
				}
				re, err := s.Recompile(d)
				if err != nil {
					t.Fatalf("%v: recompile: %v", lvl, err)
				}
				cfg := s.Config()
				if got, want := len(cfg.Controls), len(a.Controls)+len(d.AddControls); got != want {
					t.Errorf("%v: session has %d controls after the delta, want %d", lvl, got, want)
				}
				cold := coldCompile(t, a, cfg)
				if !bytes.Equal(dumpIR(t, re), dumpIR(t, cold)) {
					t.Errorf("%v: recompiled final IR differs from cold compile", lvl)
				}

				passes := len(first.Report.Passes)
				st := s.Stats()
				if st.Compiles != 2 || st.PassesExecuted != 2*passes || st.PassesSkipped != 0 {
					t.Errorf("%v: session stats = %+v, want 2 compiles of %d passes, none skipped",
						lvl, st, passes)
				}
			}
		})
	}
}

// TestSessionFullCacheHit pins the no-delta case: recompiling with nothing
// changed reproduces the previous compile — the same final IR and the same
// profile. A compile that reused the transformed program or the profiled
// (rewritten) trace packets instead of fresh clones would differ.
func TestSessionFullCacheHit(t *testing.T) {
	a := apps.L3Switch()
	s := newSessionFor(t, a, driver.LevelSWC)
	first, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Recompile(driver.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpIR(t, first), dumpIR(t, second)) {
		t.Error("no-delta recompile changed the final IR")
	}
	if !reflect.DeepEqual(first.Report.ProfileStats, second.Report.ProfileStats) {
		t.Error("no-delta recompile profiled different packets")
	}
	if second.Image == nil || second.Report.Plan == nil || second.Report.ProfileStats == nil {
		t.Error("no-delta recompile result is missing image/plan/profile")
	}
}
