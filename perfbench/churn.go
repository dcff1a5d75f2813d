package main

import (
	"fmt"
	"time"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ixp"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
	"shangrila/internal/workload"
)

// control-churn: the three apps at +SWC under open-loop Poisson 64B
// traffic below every app's saturating rate, with a seeded control-plane
// update storm applied through the runtime while they forward. The same
// policy deltas are then fed one by one to an incremental compile
// session. The machines run below saturation, so latency is what moves,
// and the compiler runs incrementally rather than cold.
var controlChurn = &workloadDef{
	name:   "control-churn",
	rep:    churnRep,
	check:  churnCheck,
	enough: churnEnough,
}

const (
	// churnOfferedGbps is below every app's saturating rate at +SWC on
	// six MEs; Firewall, the slowest, forwards about 1.2 Gbps.
	churnOfferedGbps = 1.0
	// churnMeasure is long enough for Firewall to deliver minDelivered
	// packets even when the storm has most of its traffic denied.
	churnMeasure = 3_000_000
	// The storm: updates per simulated second, in back-to-back pairs;
	// ten per app in the measured window.
	churnUpdatesPerSec = 2_400
	churnBurst         = 2
	// minDelivered is the fewest packets an app's window must deliver
	// for its latency percentiles to be reported.
	minDelivered = 1000
)

// churnEnough requires the pooled recompile times to support a p90 with
// minTail samples beyond it.
func churnEnough(reps []*repResult) bool {
	var rc []float64
	for _, r := range reps {
		rc = append(rc, r.recompileMS...)
	}
	_, ok := percentile(rc, 90)
	return ok
}

// churnUpdates expands the seeded storm into updates at absolute cycles
// across the measured window [start, start+span).
func churnUpdates(a *apps.App, seed uint64, clockMHz float64, start, span int64) ([]rts.Update, error) {
	cs, err := workload.NewChurnStream(workload.ChurnSpec{
		Seed: seed, UpdatesPerSec: churnUpdatesPerSec, Burst: churnBurst, Items: len(a.Churn.Targets),
	})
	if err != nil {
		return nil, err
	}
	var ups []rts.Update
	at := start
	for {
		ev := cs.Next()
		at += int64(ev.GapSeconds * clockMHz * 1e6)
		if at >= start+span {
			return ups, nil
		}
		ups = append(ups, rts.Update{At: at, Control: a.Churn.State(ev.Item, ev.Version, ev.Withdraw)})
	}
}

// completedGbps is the simulated rate of packets the app completed,
// forwarded or dropped by its policy, in wire bits. The storm flips
// Firewall rules between allow and deny, so the forwarded share depends
// on the storm; the completed rate instead stays at the offered load
// unless the machine falls behind it.
func completedGbps(st *ixp.Stats, clockMHz float64) float64 {
	if st.RxPackets == 0 || st.Cycles == 0 {
		return 0
	}
	bitsPerPkt := float64(st.RxBits) / float64(st.RxPackets)
	seconds := float64(st.Cycles) / (clockMHz * 1e6)
	return float64(st.TxPackets+st.FreedPackets) * bitsPerPkt / 1e9 / seconds
}

// churnDelivered is each app's delivered packet count in the measured
// window, kept for the output checks.
type churnDelivered map[string]uint64

// churnUnit is one app's session, booted machine and update storm.
type churnUnit struct {
	app  *apps.App
	id   int
	sess *driver.Session
	rt   *rts.Runtime
	ups  []rts.Update
}

func churnRep(c *runCtx, tr *tracer) (*repResult, error) {
	r := newRep(tr)
	var units []*churnUnit
	var err error
	r.setup, _, err = phase(tr, "setup", func(root int) error {
		for _, a := range apps.All() {
			id := tr.unit("control-churn/" + a.Name + "/+SWC")
			span := tr.begin(root, "unit", id)
			u, err := churnSetup(c, tr, span, id, a, r)
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

	delivered := churnDelivered{}
	var ws windows
	r.run, r.allocMB, err = phase(tr, "run", func(root int) error {
		for _, u := range units {
			span := tr.begin(root, "unit", u.id)
			storm := u.rt.ScheduleUpdates(u.ups)
			s, err := simulate(tr, span, u.id, u.app.Name, u.rt, churnMeasure, r)
			if err != nil {
				tr.end(span)
				return err
			}
			lat := u.rt.M.Observer().Latency()
			ws.add(r, u.app.Name, completedGbps(&s, u.rt.M.Cfg.ClockMHz), &s, lat, fmt.Sprintf(" updates %+v", *storm))
			delivered[u.app.Name] = lat.Count
			c.led.noteN(u.app.Name+" control-plane updates", storm.Scheduled,
				storm.Scheduled-storm.Applied)
			r.layers["churn.updates_applied"] += float64(storm.Applied)
			r.layers["churn.updates_failed"] += float64(storm.Failed)
			tr.end(span)
		}
		// The recompiles come after every simulation, so the garbage they
		// leave is not collected while a machine runs.
		for _, u := range units {
			span := tr.begin(root, "unit", u.id)
			recompileAll(c, tr, span, u, r)
			tr.end(span)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ws.finish(r)
	r.check = delivered
	finishLayers(tr, r)
	return r, nil
}

// churnSetup compiles an app cold inside an incremental session, boots
// its image under the Poisson workload and expands the update storm.
func churnSetup(c *runCtx, tr *tracer, span, unit int, a *apps.App, r *repResult) (*churnUnit, error) {
	u := &churnUnit{app: a, id: unit}
	prog, err := lowerApp(tr, span, unit, a)
	if err != nil {
		return nil, err
	}
	var cfg driver.Config
	tr.call(span, "inputs", unit, func() error {
		cfg = compileConfig(a, prog, driver.LevelSWC, c.seed)
		return nil
	})
	var res *driver.Result
	err = tr.call(span, "session.compile", unit, func() (err error) {
		if u.sess, err = driver.NewSession(prog, cfg); err != nil {
			return err
		}
		res, err = u.sess.Compile()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s session compile: %w", a.Name, err)
	}
	addCode(r.layers, res.Report.CodeSizes, len(res.Image.MECode))
	wl := &workload.Spec{
		Seed: c.seed + 1, Arrival: workload.ArrivalPoisson, Sizes: workload.SizesMin,
		OfferedGbps: churnOfferedGbps,
	}
	if u.rt, err = bootApp(c, tr, span, unit, a, res, wl, r); err != nil {
		return nil, err
	}
	err = tr.call(span, "inputs", unit, func() (err error) {
		u.ups, err = churnUpdates(a, c.seed+2, u.rt.M.Cfg.ClockMHz, warmupCycle, churnMeasure)
		return err
	})
	return u, err
}

// recompileAll feeds the storm's deltas one by one to the app's session,
// timing each recompile; a failed recompile counts in the ledger.
func recompileAll(c *runCtx, tr *tracer, span int, cu *churnUnit, r *repResult) {
	var last *driver.Result
	a, sess := cu.app, cu.sess
	before := sess.Stats()
	for i, u := range cu.ups {
		var res *driver.Result
		t0 := time.Now()
		err := tr.call(span, "session.recompile", cu.id, func() (err error) {
			res, err = sess.Recompile(driver.Delta{AddControls: []profiler.Control{u.Control}})
			return err
		})
		r.recompileMS = append(r.recompileMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if !c.led.note(fmt.Sprintf("%s recompile %d", a.Name, i), err) {
			continue
		}
		addPasses(r.layers, res.Report.Passes, false)
		last = res
	}
	stats := sess.Stats()
	run, skip := stats.PassesExecuted-before.PassesExecuted, stats.PassesSkipped-before.PassesSkipped
	r.layers["session.passes_run"] += float64(run)
	r.layers["session.passes_skipped"] += float64(skip)
	if run, skip := r.layers["session.passes_run"], r.layers["session.passes_skipped"]; run+skip > 0 {
		r.layers["session.skip_frac"] = skip / (run + skip)
	}
	if last == nil {
		return
	}
	for _, p := range last.Report.Passes {
		r.layers["pass."+sanitize(p.Pass)+".instrs_out"] += float64(p.InstrsAfter)
	}
	r.fp.add("%s recompiles %d: executed %d skipped %d, final code %v",
		a.Name, len(cu.ups), run, skip, last.Report.CodeSizes)
}

// churnCheck compares every +SWC build with the host reference
// interpreter and requires each app's window to deliver enough packets
// for its latency percentiles.
func churnCheck(c *runCtx, first *repResult) {
	for _, a := range apps.All() {
		differential(c, a, driver.LevelSWC)
	}
	for _, a := range apps.All() {
		n := first.check.(churnDelivered)[a.Name]
		var err error
		if n < minDelivered {
			err = fmt.Errorf("%d packets delivered, fewer than %d", n, minDelivered)
		}
		c.led.note(a.Name+" latency sample size", err)
	}
}
