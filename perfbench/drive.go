package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"shangrila/internal/apps"
	"shangrila/internal/baker/ast"
	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/ixp"
	"shangrila/internal/lower"
	"shangrila/internal/metrics"
	"shangrila/internal/packet"
	"shangrila/internal/rts"
	"shangrila/internal/workload"
)

// The layer calls every workload shares, each inside its own span. The
// seeds follow the harness: the profile trace uses the workload seed, the
// measured traffic seed+1 and the control-plane storm seed+2, so the
// benchmark's own drive reproduces harness.Run for the same seed.

const (
	numMEs      = 6    // enabled packet-processing MEs, as in Table 1
	profileN    = 512  // packets in the compile-time profile trace
	traceN      = 2048 // distinct packets in the measured trace
	warmupCycle = 150_000
)

// hostTime is an interval of host time in seconds on two clocks: wall
// time, and the CPU time of the whole process (every thread, user and
// system). CPU time leaves out the time the hypervisor or other tenants
// hold the vCPUs, so on a shared host it is the steadier of the two, and
// the gated timing metrics use it.
type hostTime struct{ wall, cpu float64 }

func (h *hostTime) add(o hostTime) { h.wall += o.wall; h.cpu += o.cpu }

// clock is the starting point of a hostTime.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() clock { return clock{time.Now(), processCPU()} }

func (c clock) elapsed() hostTime {
	return hostTime{time.Since(c.wall).Seconds(), (processCPU() - c.cpu).Seconds()}
}

// processCPU is the CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase times fn as one phase of a repetition, after a collection so
// earlier garbage is not charged to it, and returns its host time and
// heap allocation.
func phase(tr *tracer, name string, fn func(root int) error) (t hostTime, allocMB float64, err error) {
	runtime.GC()
	a0 := heapAllocs()
	c := startClock()
	root := tr.begin(0, name, 0)
	err = fn(root)
	tr.end(root)
	t = c.elapsed()
	return t, mb(heapAllocs() - a0), err
}

// lowerApp runs the frontend on an app's Baker source.
func lowerApp(tr *tracer, parent, unit int, a *apps.App) (*ir.Program, error) {
	var ap *ast.Program
	var tp *types.Program
	var prog *ir.Program
	err := tr.call(parent, "frontend.parse", unit, func() (err error) {
		ap, err = parser.Parse(a.Name+".baker", a.Source)
		return err
	})
	if err == nil {
		err = tr.call(parent, "frontend.check", unit, func() (err error) {
			tp, err = types.Check(ap)
			return err
		})
	}
	if err == nil {
		err = tr.call(parent, "frontend.lower", unit, func() (err error) {
			prog, err = lower.Lower(tp)
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("%s frontend: %w", a.Name, err)
	}
	return prog, nil
}

// compileConfig is the configuration harness.Run compiles an app with.
func compileConfig(a *apps.App, prog *ir.Program, lvl driver.Level, seed uint64) driver.Config {
	return driver.Config{
		Level:        lvl,
		ProfileTrace: a.Trace(prog.Types, seed, profileN),
		Controls:     a.Controls,
	}
}

// compileApp compiles an app from source with driver.CompileIR, adding
// the compile's per-pass figures to r.
func compileApp(c *runCtx, tr *tracer, parent, unit int, a *apps.App, lvl driver.Level, r *repResult) (*driver.Result, error) {
	prog, err := lowerApp(tr, parent, unit, a)
	if err != nil {
		return nil, err
	}
	var cfg driver.Config
	tr.call(parent, "inputs", unit, func() error {
		cfg = compileConfig(a, prog, lvl, c.seed)
		return nil
	})
	var res *driver.Result
	a0 := tr.allocs()
	err = tr.call(parent, "compile", unit, func() (err error) {
		res, err = driver.CompileIR(prog, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s at %v: %w", a.Name, lvl, err)
	}
	r.layers["compile.alloc_mb"] += mb(tr.allocs() - a0)
	r.compilePassMS += passMS(res.Report.Passes)
	addPasses(r.layers, res.Report.Passes, true)
	addCode(r.layers, res.Report.CodeSizes, len(res.Image.MECode))
	return res, nil
}

// bootApp generates an app's measured traffic, loads its image on a fresh
// machine and applies the boot controls. A nil wl plays the trace back at
// line rate (saturating); otherwise wl shapes open-loop arrivals.
func bootApp(c *runCtx, tr *tracer, parent, unit int, a *apps.App, res *driver.Result, wl *workload.Spec, r *repResult) (*rts.Runtime, error) {
	var trc []*packet.Packet
	tr.call(parent, "inputs", unit, func() error {
		trc = a.Trace(res.Prog.Types, c.seed+1, traceN)
		return nil
	})
	var rt *rts.Runtime
	a0 := tr.allocs()
	err := tr.call(parent, "load", unit, func() (err error) {
		rt, err = rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: numMEs, Workload: wl})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s load: %w", a.Name, err)
	}
	r.layers["load.alloc_mb"] += mb(tr.allocs() - a0)
	err = tr.call(parent, "control", unit, func() error {
		for _, ctl := range a.Controls {
			if err := rt.Control(ctl.Name, ctl.Args...); err != nil {
				return fmt.Errorf("control %s: %w", ctl.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s boot: %w", a.Name, err)
	}
	return rt, nil
}

// simulate runs a booted machine through the warm-up and then the
// measured window, and returns the measured window's statistics. The
// host time of the measured Run counts toward sim_mcycles_per_cpu_s.
func simulate(tr *tracer, parent, unit int, name string, rt *rts.Runtime, measure int64, r *repResult) (ixp.Stats, error) {
	err := tr.call(parent, "sim.warmup", unit, func() error { return rt.Run(warmupCycle) })
	if err != nil {
		return ixp.Stats{}, fmt.Errorf("%s warm-up: %w", name, err)
	}
	rt.M.ResetStats()
	a0 := tr.allocs()
	c := startClock()
	err = tr.call(parent, "sim", unit, func() error { return rt.Run(measure) })
	r.simTime.add(c.elapsed())
	r.simCycles += measure
	if err != nil {
		return ixp.Stats{}, fmt.Errorf("%s measure: %w", name, err)
	}
	r.layers["sim.alloc_mb"] += mb(tr.allocs() - a0)
	return rt.M.Snapshot(), nil
}

// windows collects the measured windows of one repetition, one per app.
type windows struct {
	gbps, acc, p50, p99 []float64
	sim                 simLayer
}

// add records an app's measured window: gbps is the workload's simulated
// rate for it, st and lat its statistics and latency. The window's line of
// the fingerprint ends with extra.
func (w *windows) add(r *repResult, app string, gbps float64, st *ixp.Stats, lat metrics.HistogramSnapshot, extra string) {
	t1 := table1Of(st)
	w.gbps = append(w.gbps, gbps)
	w.acc = append(w.acc, t1.total())
	w.p50 = append(w.p50, float64(lat.P50))
	w.p99 = append(w.p99, float64(lat.P99))
	w.sim.addStats(st)
	r.fp.add("%s +SWC: gbps %v table1 %v tx %d rx_dropped %d instrs %v latency n=%d p50=%d p99=%d%s",
		app, gbps, t1, st.TxPackets, st.RxDropped, st.MEInstrs, lat.Count, lat.P50, lat.P99, extra)
}

// finish stores the geomeans over apps as the repetition's simulated
// metrics, and the simulator's counters as per-layer ones.
func (w *windows) finish(r *repResult) {
	r.sim["sim_gbps"] = geomean(w.gbps)
	r.sim["sim_accesses_per_pkt"] = geomean(w.acc)
	r.sim["sim_p50_cycles"] = geomean(w.p50)
	r.sim["sim_p99_cycles"] = geomean(w.p99)
	w.sim.into(r.layers)
}

// finishLayers derives the per-layer figures that need the whole
// repetition: self times per span, compile self time, and host time per
// simulated cycle and instruction.
func finishLayers(tr *tracer, r *repResult) {
	if tr == nil {
		return
	}
	l := r.layers
	for name, d := range selfTimes(tr.spans, tr.rep) {
		if m, ok := spanMetric[name]; ok {
			l[m] += float64(d.Nanoseconds()) / 1e6
		}
	}
	l["compile.self_ms"] = l["compile.ms"] - r.compilePassMS
	if r.simCycles > 0 {
		l["sim.ns_per_cycle"] = l["sim.ms"] * 1e6 / float64(r.simCycles)
	}
	if n := l["sim.me_instrs"]; n > 0 {
		l["sim.ns_per_instr"] = l["sim.ms"] * 1e6 / n
	}
}
