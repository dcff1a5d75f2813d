package main

import (
	"fmt"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/rts"
)

// steady-forward: the three apps compiled at +SWC during set-up, booted on
// six MEs with saturating trace playback, each simulated for one long
// measured window after a warm-up. The timed phase is simulation only, so
// host time here is the event core, ME execution and the memory model.
var steadyForward = &workloadDef{
	name:   "steady-forward",
	rep:    steadyRep,
	check:  steadyCheck,
	enough: func([]*repResult) bool { return true },
}

// steadyMeasure is each app's measured window in chip cycles.
const steadyMeasure = 4_000_000

// steadyOut is one app's measured window, kept for the output checks.
type steadyOut struct {
	app   *apps.App
	gbps  float64
	t1    table1
	txPkt uint64
}

func steadyRep(c *runCtx, tr *tracer) (*repResult, error) {
	r := newRep(tr)
	type unit struct {
		app *apps.App
		id  int
		rt  *rts.Runtime
	}
	var units []unit
	var err error
	r.setup, _, err = phase(tr, "setup", func(root int) error {
		for _, a := range apps.All() {
			u := unit{app: a, id: tr.unit("steady-forward/" + a.Name + "/+SWC")}
			span := tr.begin(root, "unit", u.id)
			res, err := compileApp(c, tr, span, u.id, a, driver.LevelSWC, r)
			if err == nil {
				u.rt, err = bootApp(c, tr, span, u.id, a, res, nil, r)
			}
			tr.end(span)
			if err != nil {
				return err
			}
			units = append(units, u)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var outs []steadyOut
	var ws windows
	r.run, r.allocMB, err = phase(tr, "run", func(root int) error {
		for _, u := range units {
			span := tr.begin(root, "unit", u.id)
			st, err := simulate(tr, span, u.id, u.app.Name, u.rt, steadyMeasure, r)
			tr.end(span)
			if err != nil {
				return err
			}
			o := steadyOut{app: u.app, gbps: st.Gbps(u.rt.M.Cfg.ClockMHz), t1: table1Of(&st), txPkt: st.TxPackets}
			outs = append(outs, o)
			ws.add(r, u.app.Name, o.gbps, &st, u.rt.M.Observer().Latency(), "")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ws.finish(r)
	r.check = outs
	finishLayers(tr, r)
	return r, nil
}

// steadyCheck compares every +SWC build with the host reference
// interpreter, and requires harness.Run to reproduce the benchmark's own
// layer-by-layer drive of one app (chosen by the seed).
func steadyCheck(c *runCtx, first *repResult) {
	for _, a := range apps.All() {
		differential(c, a, driver.LevelSWC)
	}
	outs := first.check.([]steadyOut)
	o := outs[c.seed%uint64(len(outs))]
	res, err := harness.Run(o.app,
		harness.WithLevel(driver.LevelSWC),
		harness.WithMEs(numMEs),
		harness.WithSeed(c.seed),
		harness.WithTrace(traceN),
		harness.WithWindows(warmupCycle, steadyMeasure))
	if err == nil {
		got := steadyOut{app: o.app, gbps: res.Gbps, txPkt: res.TxPackets, t1: table1{
			pktScratch: res.PktScratch, pktSRAM: res.PktSRAM, pktDRAM: res.PktDRAM,
			appScratch: res.AppScratch, appSRAM: res.AppSRAM,
		}}
		if got != o {
			err = fmt.Errorf("harness.Run gives gbps %v table1 %v tx %d, the benchmark's drive gbps %v table1 %v tx %d",
				got.gbps, got.t1, got.txPkt, o.gbps, o.t1, o.txPkt)
		}
	}
	c.led.note(o.app.Name+" benchmark drive reproduces harness.Run", err)
}

// differential runs the packet-level oracle on the given builds of an
// app: transmitted frames must equal the host reference interpreter's.
// Each build counts as one check; a divergence outside every build (the
// frontend or the reference itself) fails them all.
func differential(c *runCtx, a *apps.App, levels ...driver.Level) {
	rep := harness.DifferentialWith(harness.DiffConfig{Seed: c.seed}, a, levels...)
	bad := map[string]bool{}
	all := false
	for _, d := range rep.Divergences {
		bad[d.LevelB] = true
		all = all || !isLevel(d.LevelB, levels)
	}
	for _, lvl := range levels {
		var err error
		if all || bad[lvl.String()] {
			err = fmt.Errorf("%s", rep)
		}
		c.led.note(fmt.Sprintf("%s %v matches the reference interpreter", a.Name, lvl), err)
	}
}

func isLevel(name string, levels []driver.Level) bool {
	for _, lvl := range levels {
		if lvl.String() == name {
			return true
		}
	}
	return false
}
