package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ixp"
	"shangrila/internal/rts"
)

// The execution-engine differential suite: golden snapshots of
// Machine.Snapshot() and the stall breakdown, captured from the
// pre-predecode per-instruction interpreter, locked byte-identical against
// the current engine. Any change to instruction semantics, cycle
// accounting, event ordering, or stall attribution shows up as a golden
// mismatch. Regenerate with:
//
//	go test ./internal/harness -run TestEngineDifferential -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite the execution-engine golden snapshots from the current engine")

// engineSnapshot is the canonical observable state of one measured run.
// Everything in it must be bit-identical across engine rewrites.
type engineSnapshot struct {
	Cycles        int64            `json:"cycles"`
	RxPackets     uint64           `json:"rx_packets"`
	RxBits        uint64           `json:"rx_bits"`
	TxPackets     uint64           `json:"tx_packets"`
	TxBits        uint64           `json:"tx_bits"`
	FreedPackets  uint64           `json:"freed_packets"`
	RxDropped     uint64           `json:"rx_dropped"`
	RxDroppedBits uint64           `json:"rx_dropped_bits"`
	RingOverflow  []uint64         `json:"ring_overflow"`
	MEAccesses    []string         `json:"me_accesses"`
	MEInstrs      []uint64         `json:"me_instrs"`
	MEBusy        []int64          `json:"me_busy"`
	CtrlBusy      [4]int64         `json:"ctrl_busy"`
	InFlight      int              `json:"in_flight"`
	RingMaxOcc    []int            `json:"ring_max_occ"`
	Stalls        *ixp.StallReport `json:"stalls"`
	LatencyCount  uint64           `json:"latency_count"`
	LatencyMax    int64            `json:"latency_max"`
	Percentiles   map[string]int64 `json:"latency_percentiles"`
}

// canonSnapshot flattens a Stats snapshot into deterministic form: the
// MEAccesses map becomes a sorted "level/class=count" list so the JSON is
// byte-stable.
func canonSnapshot(m *ixp.Machine) *engineSnapshot {
	st := m.Snapshot()
	var acc []string
	for k, v := range st.MEAccesses {
		acc = append(acc, fmt.Sprintf("%v/%v=%d", k.Level, k.Class, v))
	}
	sort.Strings(acc)
	lat := m.Observer().Latency()
	snap := &engineSnapshot{
		Cycles:        st.Cycles,
		RxPackets:     st.RxPackets,
		RxBits:        st.RxBits,
		TxPackets:     st.TxPackets,
		TxBits:        st.TxBits,
		FreedPackets:  st.FreedPackets,
		RxDropped:     st.RxDropped,
		RxDroppedBits: st.RxDroppedBits,
		RingOverflow:  st.RingOverflow,
		MEAccesses:    acc,
		MEInstrs:      st.MEInstrs,
		MEBusy:        st.MEBusy,
		CtrlBusy:      st.Busy,
		InFlight:      m.Observer().InFlight(),
		RingMaxOcc:    m.Observer().RingMaxOcc(),
		Stalls:        m.Observer().StallReport(),
		LatencyCount:  lat.Count,
		LatencyMax:    lat.Max,
		Percentiles: map[string]int64{
			"p50": lat.P50,
			"p90": lat.P90,
			"p99": lat.P99,
		},
	}
	return snap
}

// runDifferentialPoint measures one app × level × ME-count point exactly
// the way measure() does — warm-up, stats reset, measured window, stall
// tracer attached — but keeps the machine so the full snapshot can be
// captured.
func runDifferentialPoint(t *testing.T, a *apps.App, res *driver.Result, numMEs int) *engineSnapshot {
	t.Helper()
	snap, err := differentialPoint(a, res, numMEs)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// differentialPoint is runDifferentialPoint for callers off the test
// goroutine, which must not call t.Fatal.
func differentialPoint(a *apps.App, res *driver.Result, numMEs int) (*engineSnapshot, error) {
	trc := a.Trace(res.Prog.Types, 1235, 128)
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: numMEs})
	if err != nil {
		return nil, fmt.Errorf("%s %dME: %v", a.Name, numMEs, err)
	}
	for _, c := range a.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			return nil, fmt.Errorf("%s control %s: %v", a.Name, c.Name, err)
		}
	}
	st := ixp.NewStallTracer(rt.M.Cfg.NumMEs, rt.M.Cfg.ThreadsPerME)
	rt.M.Observer().SetTracer(st)
	if err := rt.Run(25_000); err != nil {
		return nil, fmt.Errorf("%s warmup: %v", a.Name, err)
	}
	rt.M.ResetStats()
	if err := rt.Run(120_000); err != nil {
		return nil, fmt.Errorf("%s measure: %v", a.Name, err)
	}
	return canonSnapshot(rt.M), nil
}

// TestEngineDifferential runs every example application at every
// optimization level (and two ME placements: the combined single-engine
// program and a replicated pipeline) and asserts the canonical JSON of the
// run's observable state — stats, access accounting, stall attribution,
// latency distribution — is byte-identical to the golden captured from the
// reference per-instruction interpreter.
func TestEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is slow; run without -short")
	}
	dir := filepath.Join("testdata", "engine")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range apps.All() {
		for _, lvl := range driver.Levels() {
			res, err := Compile(a, lvl, 1234)
			if err != nil {
				t.Fatalf("%s at %v: %v", a.Name, lvl, err)
			}
			for _, mes := range []int{1, 5} {
				name := fmt.Sprintf("%s-%s-%dme", a.Name, lvl, mes)
				t.Run(name, func(t *testing.T) {
					snap := runDifferentialPoint(t, a, res, mes)
					if *updateGolden {
						got := snapshotJSON(t, snap)
						if err := os.WriteFile(goldenPath(name), got, 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					checkGolden(t, name, snap, "engine output")
				})
			}
		}
	}
}

// goldenPath is the engine golden of one differential point.
func goldenPath(name string) string {
	return filepath.Join("testdata", "engine", name+".json")
}

// snapshotJSON is the byte form a golden stores.
func snapshotJSON(t *testing.T, snap *engineSnapshot) []byte {
	t.Helper()
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n')
}

// checkGolden reports an error unless snap is byte-identical to the
// golden of the named point; what names the run in the message.
func checkGolden(t *testing.T, name string, snap *engineSnapshot, what string) {
	t.Helper()
	got := snapshotJSON(t, snap)
	path := goldenPath(name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run TestEngineDifferential with -update-golden): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s diverged from reference-interpreter golden %s\ngot:\n%s\nwant:\n%s",
			what, path, got, want)
	}
}

// TestEngineDifferentialParallel replays the full differential suite with
// every point running concurrently on its own Machine, the two ME
// placements of one app and level sharing one compiled driver.Result.
// The sweep worker pool and the cluster runner get their host
// parallelism this way, so their reports are only deterministic if
// Machines share no mutable state and running a compiled program never
// writes to it: every point must still match its golden byte for byte.
func TestEngineDifferentialParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is slow; run without -short")
	}
	for _, a := range apps.All() {
		for _, lvl := range driver.Levels() {
			res, err := Compile(a, lvl, 1234)
			if err != nil {
				t.Fatalf("%s at %v: %v", a.Name, lvl, err)
			}
			for _, mes := range []int{1, 5} {
				name := fmt.Sprintf("%s-%s-%dme", a.Name, lvl, mes)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					checkGolden(t, name, runDifferentialPoint(t, a, res, mes), "concurrent run")
				})
			}
		}
	}
}

// TestEngineDifferentialCompiled checks that a compiled program is
// immutable under simulation: one driver.Result may drive any number of
// Machines, one after another or at the same time, and each reproduces
// the golden. For every point the measured Machine runs beside sibling
// Machines built from the same Result: shards=0 runs one sibling to the
// end first and then the measured Machine (state a finished run left in
// the program would show), shards=3 runs three siblings concurrently
// with it. Every sibling's snapshot must match the golden too.
func TestEngineDifferentialCompiled(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is slow; run without -short")
	}
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, a := range apps.All() {
				for _, lvl := range driver.Levels() {
					res, err := Compile(a, lvl, 1234)
					if err != nil {
						t.Fatalf("%s at %v: %v", a.Name, lvl, err)
					}
					for _, mes := range []int{1, 5} {
						name := fmt.Sprintf("%s-%s-%dme", a.Name, lvl, mes)
						t.Run(name, func(t *testing.T) {
							if shards == 0 {
								checkGolden(t, name, runDifferentialPoint(t, a, res, mes), "sibling run")
								checkGolden(t, name, runDifferentialPoint(t, a, res, mes), "run on a program a finished run used")
								return
							}
							snaps := make([]*engineSnapshot, shards+1)
							errs := make([]error, len(snaps))
							var wg sync.WaitGroup
							for i := range snaps {
								wg.Add(1)
								go func() {
									defer wg.Done()
									snaps[i], errs[i] = differentialPoint(a, res, mes)
								}()
							}
							wg.Wait()
							for i, snap := range snaps {
								if errs[i] != nil {
									t.Fatalf("machine %d of %d: %v", i, len(snaps), errs[i])
								}
								checkGolden(t, name, snap, fmt.Sprintf("machine %d of %d on one program", i, len(snaps)))
							}
						})
					}
				}
			}
		})
	}
}

// TestAppsPacketDifferential is the packet-level leg of the differential
// suite, consuming the public oracle: every example application's
// transmitted frames at every optimization level must match the host
// reference interpreter exactly (the same contract the compiler fuzzer
// enforces on generated programs).
func TestAppsPacketDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is slow; run without -short")
	}
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			rep := Differential(a)
			if !rep.OK() {
				t.Errorf("%s", rep)
			}
			if rep.Injected == 0 || rep.RefFrames == 0 {
				t.Fatalf("vacuous differential: injected=%d ref=%d", rep.Injected, rep.RefFrames)
			}
		})
	}
}
