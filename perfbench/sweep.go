package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"shangrila/internal/apps"
	"shangrila/internal/harness"
)

// paper-sweep: the fig6 and table1 experiments and the report export,
// through the experiment registry exactly as
// `shangrila-bench -experiment fig6,table1 -report ...` runs them. That is
// 15 cold compiles from Baker source and 63 short-lived machines per
// repetition, the workload where machine construction and cold compiles
// weigh most.
var paperSweep = &workloadDef{
	name:   "paper-sweep",
	rep:    sweepRep,
	check:  sweepCheck,
	enough: func([]*repResult) bool { return true },
}

// The sweep's measurement windows in chip cycles.
const (
	fig6Warm, fig6Measure = 50_000, 300_000
	t1Warm, t1Measure     = 120_000, 600_000
	sweepExperiments      = "fig6,table1"
)

// sweepWorkers is the sweep pool size: at most two, and at most nproc.
func sweepWorkers() int { return min(2, runtime.NumCPU()) }

func sweepRep(c *runCtx, tr *tracer) (*repResult, error) {
	r := newRep(tr)
	var ctx *harness.ExpContext
	var out bytes.Buffer
	var selected []*harness.Experiment
	var expFlags map[string]any
	var err error
	// Set-up resolves the command line into the experiment context and
	// runs the frontend over the apps' sources to validate the inputs;
	// the experiments then compile from source themselves.
	r.setup, _, err = phase(tr, "setup", func(root int) error {
		registry := harness.Experiments()
		fs := flag.NewFlagSet("shangrila-bench", flag.ContinueOnError)
		common := harness.RegisterCommonFlags(fs)
		expFlags = registry.BindFlags(fs)
		if err := fs.Parse([]string{"-seed", strconv.FormatUint(c.seed, 10)}); err != nil {
			return err
		}
		var err error
		if selected, err = registry.Select(sweepExperiments); err != nil {
			return err
		}
		opts, err := common.Options()
		if err != nil {
			return err
		}
		cfg := harness.DefaultRunConfig()
		cfg.Seed = c.seed
		cfg.Warmup, cfg.Measure = t1Warm, t1Measure
		ctx = &harness.ExpContext{
			Out:     &out,
			Common:  common,
			Opts:    append(opts, harness.WithTelemetry(0), harness.WithWorkers(sweepWorkers())),
			Cfg:     cfg,
			FigWarm: fig6Warm,
			FigMeas: fig6Measure,
			Loads:   harness.DefaultLoads(),
			Report:  harness.NewReportBuilder(),
		}
		for _, a := range apps.All() {
			unit := tr.unit("paper-sweep/" + a.Name)
			span := tr.begin(root, "unit", unit)
			_, err := lowerApp(tr, span, unit, a)
			tr.end(span)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var report bytes.Buffer
	r.run, r.allocMB, err = phase(tr, "run", func(root int) error {
		for _, e := range selected {
			ctx.Report.RecordExperiment(e.Name)
			a0 := tr.allocs()
			err := tr.call(root, "exp."+e.Name, 0, func() error { return e.Run(ctx, expFlags[e.Name]) })
			if err != nil {
				return fmt.Errorf("experiment %s: %w", e.Name, err)
			}
			r.layers["exp."+e.Name+".alloc_mb"] += mb(tr.allocs() - a0)
		}
		return tr.call(root, "report", 0, func() error { return ctx.Report.Report().WriteJSON(&report) })
	})
	if err != nil {
		return nil, err
	}

	rep := ctx.Report.Report()
	var gbps, acc []float64
	sl := &simLayer{}
	for i := range rep.Points {
		p := &rep.Points[i]
		gbps = append(gbps, p.Gbps)
		acc = append(acc, table1OfPoint(p).total())
		sl.addPoint(p)
		r.layers["exp.table1.compile_ms"] += passMS(p.CompilePasses)
		addPasses(r.layers, p.CompilePasses, true)
		addCode(r.layers, p.CodeSizes, p.Stages)
	}
	sl.into(r.layers)
	r.layers["report.bytes"] = float64(report.Len())
	r.sim["sim_gbps"] = geomean(gbps)
	r.sim["sim_accesses_per_pkt"] = geomean(acc)
	r.simCycles = int64(len(harness.Fig6Series)*len(harness.Fig6Counts))*(fig6Warm+fig6Measure) +
		int64(len(rep.Points))*(t1Warm+t1Measure)
	r.simTime = r.run
	canon, err := rep.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	r.fp = append(r.fp, strings.Split(strings.TrimRight(out.String(), "\n"), "\n")...)
	r.fp.add("report points %d canonical sha256 %x", len(rep.Points), sha256.Sum256(canon))
	finishLayers(tr, r)
	return r, nil
}

// sweepCheck compares every Table 1 build with the host reference
// interpreter.
func sweepCheck(c *runCtx, _ *repResult) {
	for _, a := range apps.All() {
		differential(c, a, harness.Table1Levels()...)
	}
}
