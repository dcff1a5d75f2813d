package harness

import (
	"bytes"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/opt/swc"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
	"shangrila/internal/workload"
)

// churnTestOpts keeps churn measurement runs short.
func churnTestOpts() []Option {
	return []Option{
		WithMEs(4),
		WithWindows(60_000, 400_000),
		WithTrace(192),
		WithSeed(7),
	}
}

// TestChurnRunTimeline: the churn experiment applies updates mid-run,
// reports a bucketed timeline that keeps forwarding throughout, and
// records a recompile-latency distribution over the whole pipeline.
func TestChurnRunTimeline(t *testing.T) {
	sp := &workload.ChurnSpec{UpdatesPerSec: 60_000, Burst: 2}
	r, err := ChurnRun(apps.L3Switch(), append(churnTestOpts(),
		WithChurn(sp), WithSWCMaxCheck(64))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Buckets) != churnBuckets {
		t.Fatalf("got %d buckets, want %d", len(r.Buckets), churnBuckets)
	}
	if r.Updates.Applied == 0 || r.Updates.Failed != 0 {
		t.Errorf("update stats %+v: want applied > 0 and no failures", r.Updates)
	}
	var applied int
	var tx uint64
	for i, b := range r.Buckets {
		applied += b.UpdatesApplied
		tx += b.TxPackets
		if b.GoodputGbps <= 0 {
			t.Errorf("bucket %d: forwarding stopped (%.3f Gbps)", i, b.GoodputGbps)
		}
	}
	if applied != r.Updates.Applied {
		t.Errorf("bucket updates sum %d != applied %d", applied, r.Updates.Applied)
	}
	if tx == 0 {
		t.Error("no packets transmitted across the whole timeline")
	}
	c := r.Compile
	if c == nil {
		t.Fatal("no recompile latency recorded")
	}
	if c.Samples != churnRecompileSamples || c.P50Nanos <= 0 || c.P99Nanos < c.P50Nanos {
		t.Errorf("recompile latency %+v: want %d positive, ordered samples", c, churnRecompileSamples)
	}
	if want := len(driver.PipelineFor(driver.Config{Level: driver.LevelSWC})); c.Passes != want {
		t.Errorf("recompile ran %d passes, want the whole %d-pass pipeline", c.Passes, want)
	}
	rep := &BenchReport{Schema: ReportSchema, Churn: []*ChurnResult{r}}
	canon, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, zero := range []string{`"p50_nanos": 0`, `"p99_nanos": 0`} {
		if !bytes.Contains(canon, []byte(zero)) {
			t.Errorf("canonical report keeps wall-clock recompile latency (no %s)", zero)
		}
	}
}

// TestChurnDeterminism: the churn section of the canonical report is
// byte-identical across repeated runs. Run with -cpu 1,4 to vary
// scheduler width.
func TestChurnDeterminism(t *testing.T) {
	report := func() []byte {
		rs, err := ChurnExperiment([]*apps.App{apps.L3Switch()},
			append(churnTestOpts(),
				WithChurn(&workload.ChurnSpec{UpdatesPerSec: 40_000, Arrival: workload.ChurnArrivalPoisson, WithdrawFraction: 0.25}),
				WithSWCMaxCheck(64))...)
		if err != nil {
			t.Fatal(err)
		}
		rep := &BenchReport{Schema: ReportSchema, Churn: rs}
		b, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := report()
	b := report()
	if !bytes.Equal(a, b) {
		t.Fatalf("churn reports differ between identical runs:\n%s\n--- vs ---\n%s", a, b)
	}
}

// compileWithCheckLimit compiles an app at +SWC with the software-cache
// update-check interval clamped to limit packets.
func compileWithCheckLimit(t *testing.T, a *apps.App, limit uint32) *driver.Result {
	t.Helper()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	swcCfg := swc.DefaultConfig()
	swcCfg.MaxCheckLimit = limit
	res, err := driver.CompileIR(prog, driver.Config{
		Level:        driver.LevelSWC,
		ProfileTrace: a.Trace(prog.Types, 7, 512),
		Controls:     a.Controls,
		SWC:          swcCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func be16(b []byte) uint32 { return uint32(b[0])<<8 | uint32(b[1]) }
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// scheduleChurnStorm expands a churn spec against the app policy over
// [now, now+span) and registers the updates.
func scheduleChurnStorm(t *testing.T, rt *rts.Runtime, a *apps.App, sp workload.ChurnSpec, span int64) *rts.ChurnStats {
	t.Helper()
	ups, err := churnEvents(a, sp, rt.M.Cfg.ClockMHz, rt.M.Now(), span)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) < 10 {
		t.Fatalf("storm too weak: only %d updates scheduled", len(ups))
	}
	return rt.ScheduleUpdates(ups)
}

// TestSWCCoherencyUnderChurnStorm is the delayed-update coherency claims
// test (§5.2): while a seeded storm of route add/withdraw updates flips
// the L3-Switch tables through the XScale path, no transmitted frame may
// ever observe a half-applied rule set — every routed frame's dst MAC,
// src MAC and output port must be consistent with a single next hop, and
// that next hop must be one some applied table version installed. After
// the storm, with the check interval clamped, every ME converges to the
// final table state within the staleness bound.
func TestSWCCoherencyUnderChurnStorm(t *testing.T) {
	a := apps.L3Switch()
	res := compileWithCheckLimit(t, a, 64)
	rt, err := rts.New(res.Image, res.Prog, a.Trace(res.Prog.Types, 11, 256),
		rts.Options{NumMEs: 4, CaptureLimit: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}

	st := scheduleChurnStorm(t, rt, a, workload.ChurnSpec{
		Seed: 5, UpdatesPerSec: 150_000, Burst: 3, Items: 3, WithdrawFraction: 0.3,
	}, 400_000)
	if err := rt.Run(400_000); err != nil {
		t.Fatal(err)
	}
	if st.Applied < 10 || st.Failed != 0 {
		t.Fatalf("storm update stats %+v", st)
	}

	// Per churned /24, the next hops any applied version installs.
	allowedNH := map[uint32]map[uint32]bool{
		0xc0a80100: {4: true, 7: true},
		0x08080800: {6: true, 5: true},
		0x01010100: {7: true, 8: true},
	}
	checkFrames := func(frames []rts.TxPkt, finalNH map[uint32]uint32) {
		routed := 0
		for _, f := range frames {
			if len(f.Frame) < 34 || be16(f.Frame[12:14]) != 0x0800 {
				continue
			}
			dstHi, dstLo := be16(f.Frame[0:2]), be32(f.Frame[2:6])
			srcHi, srcLo := be16(f.Frame[6:8]), be32(f.Frame[8:12])
			if dstHi != 0x0bb0 {
				continue // bridged or flooded, not a routed frame
			}
			routed++
			nh := dstLo - 0x11000000
			if nh < 1 || nh > 8 {
				t.Fatalf("routed frame with dst MAC %04x:%08x: next hop %d out of range (torn neighbor read?)",
					dstHi, dstLo, nh)
			}
			wantHi, wantLo := routerMACHalves(nh % 3)
			if srcHi != wantHi || srcLo != wantLo {
				t.Fatalf("routed frame mixes table versions: next hop %d but src MAC %04x:%08x (want %04x:%08x)",
					nh, srcHi, srcLo, wantHi, wantLo)
			}
			ipDst := be32(f.Frame[30:34])
			if set, churned := allowedNH[ipDst&0xffffff00]; churned {
				if !set[nh] {
					t.Fatalf("frame to churned %08x/24 routed via next hop %d, never installed by any version",
						ipDst&0xffffff00, nh)
				}
				if finalNH != nil && finalNH[ipDst&0xffffff00] != nh {
					t.Fatalf("after convergence window, frame to %08x/24 still uses next hop %d (want %d)",
						ipDst&0xffffff00, nh, finalNH[ipDst&0xffffff00])
				}
			}
		}
		if routed == 0 {
			t.Fatal("no routed frames captured; the claims check exercised nothing")
		}
	}
	checkFrames(rt.TxCapture, nil)

	// Tail convergence: pin every churned route to its first announce
	// state, let in-flight packets drain and every ME pass the 64-packet
	// check bound, then require all churned-destination frames to use
	// the final tables.
	for _, tgt := range a.Churn.Targets {
		c := tgt.States[0]
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(200_000); err != nil {
		t.Fatal(err)
	}
	tailStart := len(rt.TxCapture)
	if err := rt.Run(200_000); err != nil {
		t.Fatal(err)
	}
	tail := rt.TxCapture[tailStart:]
	if len(tail) == 0 {
		t.Fatal("no frames captured in the convergence window")
	}
	checkFrames(tail, map[uint32]uint32{
		0xc0a80100: 4, 0x08080800: 6, 0x01010100: 7,
	})
}

// routerMACHalves mirrors the app's per-port router MAC assignment.
func routerMACHalves(port uint32) (hi, lo uint32) {
	return 0x0a00, 0x5e000000 | port
}

// TestFirewallRuleFlipConverges: flipping a firewall rule to deny
// through the churn path stops matching traffic once the software caches
// converge — no packet is forwarded under the withdrawn permission.
func TestFirewallRuleFlipConverges(t *testing.T) {
	a := apps.Firewall()
	res := compileWithCheckLimit(t, a, 64)
	rt, err := rts.New(res.Image, res.Prog, a.Trace(res.Prog.Types, 11, 256),
		rts.Options{NumMEs: 4, CaptureLimit: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}
	st := scheduleChurnStorm(t, rt, a, workload.ChurnSpec{
		Seed: 9, UpdatesPerSec: 150_000, Burst: 2, Items: 4,
	}, 300_000)
	if err := rt.Run(300_000); err != nil {
		t.Fatal(err)
	}
	if st.Applied < 10 || st.Failed != 0 {
		t.Fatalf("storm update stats %+v", st)
	}

	// Final state: rule 0 (allow internal web, the first churn target)
	// flipped to deny, every other churned rule back at its boot action.
	deny := a.Churn.Targets[0].States[0]
	if err := rt.Control(deny.Name, deny.Args...); err != nil {
		t.Fatal(err)
	}
	for _, tgt := range a.Churn.Targets[1:] {
		c := tgt.States[1]
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(200_000); err != nil {
		t.Fatal(err)
	}
	tailStart := len(rt.TxCapture)
	if err := rt.Run(200_000); err != nil {
		t.Fatal(err)
	}
	tail := rt.TxCapture[tailStart:]
	if len(tail) == 0 {
		t.Fatal("no frames captured in the convergence window")
	}
	for _, f := range tail {
		if len(f.Frame) < 38 || be16(f.Frame[12:14]) != 0x0800 {
			continue
		}
		src, dst := be32(f.Frame[26:30]), be32(f.Frame[30:34])
		proto := uint32(f.Frame[23])
		dport := be16(f.Frame[36:38])
		if src&0xff000000 == 0x0a000000 && dst&0xffff0000 == 0xc0a80000 &&
			proto == 6 && dport == 80 {
			t.Fatalf("packet %08x->%08x:80 forwarded after its allow rule converged to deny", src, dst)
		}
	}
}

// churnDelta mirrors the driver session tests' single-rule deltas.
func churnDelta(a *apps.App) driver.Delta {
	switch a.Name {
	case "l3switch":
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "l3switch.add_route", Args: []uint32{0x0b000000, 8, 2}}}}
	case "firewall":
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "firewall.add_rule", Args: []uint32{
				6, 0x0a000000, 0xff000000, 0xc0a80000, 0xffff0000,
				0, 0xffff, 443, 443, 6, 1, 2}}}}
	case "mpls":
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "mplsapp.add_ilm", Args: []uint32{900, 1, 1000, 3}}}}
	}
	return driver.Delta{}
}

// TestRecompilePacketDifferential: a session-recompiled image must be
// packet-for-packet identical to a cold compile of the same post-delta
// configuration — every transmitted frame byte-equal — for every app at
// every optimization level.
func TestRecompilePacketDifferential(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, lvl := range driver.Levels() {
				prog, err := driver.LowerSource(a.Name+".baker", a.Source)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := driver.NewSession(prog, driver.Config{
					Level:        lvl,
					ProfileTrace: a.Trace(prog.Types, 7, 256),
					Controls:     a.Controls,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.Compile(); err != nil {
					t.Fatalf("%v: cold session compile: %v", lvl, err)
				}
				inc, err := sess.Recompile(churnDelta(a))
				if err != nil {
					t.Fatalf("%v: recompile: %v", lvl, err)
				}
				coldProg, err := driver.LowerSource(a.Name+".baker", a.Source)
				if err != nil {
					t.Fatal(err)
				}
				coldCfg := sess.Config()
				coldCfg.ProfileTrace = a.Trace(coldProg.Types, 7, 256)
				cold, err := driver.CompileIR(coldProg, coldCfg)
				if err != nil {
					t.Fatalf("%v: cold compile: %v", lvl, err)
				}

				capture := func(res *driver.Result) []rts.TxPkt {
					rt, err := rts.New(res.Image, res.Prog, a.Trace(res.Prog.Types, 11, 128),
						rts.Options{NumMEs: 3, CaptureLimit: 4096})
					if err != nil {
						t.Fatalf("%v: %v", lvl, err)
					}
					for _, c := range coldCfg.Controls {
						if err := rt.Control(c.Name, c.Args...); err != nil {
							t.Fatalf("%v: control %s: %v", lvl, c.Name, err)
						}
					}
					if err := rt.Run(150_000); err != nil {
						t.Fatalf("%v: run: %v", lvl, err)
					}
					return rt.TxCapture
				}
				fi, fc := capture(inc), capture(cold)
				if len(fi) != len(fc) {
					t.Fatalf("%v: recompile transmitted %d frames, cold %d", lvl, len(fi), len(fc))
				}
				if len(fi) == 0 {
					t.Fatalf("%v: no frames transmitted; differential exercised nothing", lvl)
				}
				for i := range fi {
					if !bytes.Equal(fi[i].Frame, fc[i].Frame) {
						t.Fatalf("%v: frame %d differs between recompiled and cold images", lvl, i)
					}
				}
			}
		})
	}
}
