// The compilation pipeline: one ordered table of Figure 5 stages and the
// loop that runs it. A stage is scheduled at a level when its on predicate
// holds; the loop times every scheduled stage, records IR sizes, verifies
// the IR when Config.VerifyIR is enabled and dumps it when selected.

package driver

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shangrila/internal/aggregate"
	"shangrila/internal/baker/types"
	"shangrila/internal/cg"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
	"shangrila/internal/opt/pac"
	"shangrila/internal/opt/phr"
	"shangrila/internal/opt/soar"
	"shangrila/internal/opt/swc"
	"shangrila/internal/profiler"
)

// compilation is the state the stages share: the whole program, the merged
// per-aggregate programs once aggregation has run, the accumulating report
// and the analysis results later stages read.
type compilation struct {
	cfg    Config
	prog   *ir.Program
	merged []*aggregate.Merged
	report *Report
	image  *cg.Image

	profile *profiler.Stats
	// soar is the whole-program SOAR analysis: taken before PAC by the
	// soar stage and again after it by the aggregate stage, so merged
	// clones carry post-PAC annotations. Nil below +PAC, where nothing
	// analyzes.
	soar    *soar.Stats
	plan    *aggregate.Plan
	classes map[*types.Channel]aggregate.ChannelClass

	// dumpSeq numbers dump files so pipeline order survives in a listing.
	dumpSeq int
}

// stage is one step of the pipeline.
type stage struct {
	// name is the stable identifier used in Report.Passes and -dump-ir.
	name string
	// on reports whether the stage runs at a cumulative level.
	on  func(Level) bool
	run func(*compilation) error
}

func always(Level) bool    { return true }
func fromPAC(l Level) bool { return l >= LevelPAC }
func fromPHR(l Level) bool { return l >= LevelPHR }
func fromSWC(l Level) bool { return l >= LevelSWC }

// stages is the Figure 5 pipeline in execution order.
var stages = []stage{
	// Functional profiling (§4): interpret the unoptimized IR over the
	// training trace.
	{"profile", always, (*compilation).runProfile},
	// Inlining (mandatory for ME codegen) and -O1 scalar optimization.
	{"inline+scalar", always, (*compilation).runInlineScalar},
	// Static offset and alignment resolution (§5.3.2).
	{"soar", fromPAC, (*compilation).runSOAR},
	// Packet access combining on the whole program (§5.3.1).
	{"pac", fromPAC, (*compilation).runPAC},
	// PPF aggregation and per-aggregate merging (§5.1, Figure 7).
	{"aggregate", always, (*compilation).runAggregate},
	// Per-aggregate scalar cleanup, SOAR annotation and cross-PPF PAC.
	{"agg-opt", always, (*compilation).runAggOpt},
	// Packet handling removal: metadata localization, encap pair
	// elimination (§5.3.3).
	{"phr", fromPHR, (*compilation).runPHR},
	// Delayed-update software-controlled caching (§5.2).
	{"swc", fromSWC, (*compilation).runSWC},
	// Post-PHR combining and final scalar cleanup of the merged bodies.
	{"final-opt", always, (*compilation).runFinalOpt},
	// CGIR lowering, dual-bank register allocation, stack layout (§5.4).
	{"codegen", always, (*compilation).runCodegen},
}

// at reports whether the compilation's cumulative level includes l.
func (c *compilation) at(l Level) bool { return c.cfg.Level >= l }

// PassNames returns every pipeline stage name in execution order.
func PassNames() []string {
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.name
	}
	return names
}

// runProfile runs the functional profiler on unoptimized IR; every global
// optimization consumes its stats.
func (c *compilation) runProfile() error {
	stats, err := profiler.ProfileWithControls(c.prog, c.cfg.ProfileTrace, c.cfg.Controls)
	if err != nil {
		return err
	}
	c.profile = stats
	c.report.ProfileStats = stats
	return nil
}

// runInlineScalar inlines every call (calls become merged bodies, as the
// paper turns them into branches with globally allocated registers) and
// runs the -O1 scalar optimizer when enabled.
func (c *compilation) runInlineScalar() error {
	opt.Optimize(c.prog, opt.Options{Scalar: c.at(LevelO1), Inline: true})
	return nil
}

// runSOAR analyzes (and annotates) the whole program and records the facts
// in the report at +SOAR and above — whether the code generator exploits
// them is the separate +SOAR level of the evaluation axis.
func (c *compilation) runSOAR() error {
	c.soar = soar.Analyze(c.prog)
	if c.at(LevelSOAR) {
		c.report.SOAR = c.soar
	}
	return nil
}

// runPAC combines packet accesses across the whole program, then cleans up
// with the scalar optimizer. The rewrite moves and widens accesses, which
// leaves the SOAR analysis stale until the aggregate stage redoes it.
func (c *compilation) runPAC() error {
	c.report.PAC = pac.Run(c.prog)
	opt.Optimize(c.prog, opt.Options{Scalar: c.at(LevelO1)})
	return nil
}

// runAggregate runs the Figure 7 heuristic and builds the merged
// per-aggregate programs. At +PAC and above it first re-analyzes SOAR, so
// the merged clones carry post-PAC annotations.
func (c *compilation) runAggregate() error {
	if c.at(LevelPAC) {
		c.soar = soar.Analyze(c.prog)
	}
	plan, err := aggregate.Build(c.prog, c.profile, c.cfg.aggConfig())
	if err != nil {
		return err
	}
	c.report.Plan = plan
	classes := aggregate.ClassifyChannels(c.prog, plan)
	merged, err := aggregate.BuildMerged(c.prog, plan, classes)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	c.merged = merged
	c.plan, c.classes = plan, classes
	return nil
}

// annotateMerged re-runs SOAR on one merged body, seeding each entry with
// the whole-program channel-input fact so the analysis sees through former
// channel boundaries.
func (c *compilation) annotateMerged(m *aggregate.Merged) {
	entries := map[string]soar.Input{}
	for _, e := range m.Entries {
		if e.In != nil && c.soar != nil {
			if fct, ok := c.soar.ChanInputs[e.In.Name]; ok {
				entries[e.Func.Name] = fct
			}
		}
	}
	soar.AnalyzeWithEntries(m.Prog, entries)
}

// runAggOpt optimizes each ME aggregate's merged body: scalar cleanup, then
// at +PAC and above PAC across former PPF boundaries.
func (c *compilation) runAggOpt() error {
	for _, m := range c.merged {
		if m.Agg.Target != aggregate.TargetME {
			continue
		}
		opt.Optimize(m.Prog, opt.Options{Scalar: c.at(LevelO1)})
		if c.at(LevelPAC) {
			c.annotateMerged(m)
			pac.Run(m.Prog)
			opt.Optimize(m.Prog, opt.Options{Scalar: c.at(LevelO1)})
		}
	}
	return nil
}

// runPHR removes packet handling overhead inside the merged bodies; the
// whole program is read-only input that supplies the global accessor view.
func (c *compilation) runPHR() error {
	c.report.PHR = phr.Run(c.prog, c.plan, c.merged)
	return nil
}

// runSWC selects software-cache candidates from the profile and rewrites
// the cached globals' access paths.
func (c *compilation) runSWC() error {
	cfg := c.cfg.swcConfig()
	cands := swc.SelectCandidates(c.prog, c.profile, cfg)
	if _, err := swc.Apply(c.prog, c.merged, cands, cfg); err != nil {
		return err
	}
	c.report.SWCCands = cands
	return nil
}

// runFinalOpt exploits what PHR exposed: its pair elimination redirects
// accesses to shared handles, so PAC runs once more over each merged body,
// followed by a final scalar cleanup and, at +PAC and above, SOAR
// re-annotation.
func (c *compilation) runFinalOpt() error {
	for _, m := range c.merged {
		if m.Agg.Target != aggregate.TargetME {
			continue
		}
		if c.at(LevelPHR) {
			c.annotateMerged(m)
			pac.Run(m.Prog)
		}
		opt.Optimize(m.Prog, opt.Options{Scalar: c.at(LevelO1)})
		if c.at(LevelPAC) {
			c.annotateMerged(m)
		}
	}
	return nil
}

// runCodegen lowers the merged aggregates to CGIR and produces the loadable
// image.
func (c *compilation) runCodegen() error {
	img, err := cg.Compile(c.prog, c.plan, c.merged, c.classes, c.soar, cg.Options{
		O2:   c.at(LevelO2),
		SOAR: c.at(LevelSOAR),
		PHR:  c.at(LevelPHR),
		SWC:  c.at(LevelSWC),
	})
	if err != nil {
		return err
	}
	c.image = img
	for _, code := range img.MECode {
		c.report.CodeSizes = append(c.report.CodeSizes, len(code.Program.Code))
	}
	return nil
}

// VerifyMode controls post-pass IR verification.
type VerifyMode int

const (
	// VerifyAuto verifies when the process is a `go test` binary and
	// skips verification otherwise (the default: tests always check
	// every pass, production compiles stay fast).
	VerifyAuto VerifyMode = iota
	// VerifyOn always verifies after every pass.
	VerifyOn
	// VerifyOff never verifies.
	VerifyOff
)

func (m VerifyMode) enabled() bool {
	switch m {
	case VerifyOn:
		return true
	case VerifyOff:
		return false
	}
	return testing.Testing()
}

// run executes every stage scheduled at the configured level. A stage's
// timed window covers its body only; verification is timed separately.
// Sizes are whole-program IR instructions, except after codegen, where
// the generated CGIR instructions are counted.
func (c *compilation) run() error {
	verify := c.cfg.VerifyIR.enabled()
	for _, st := range stages {
		if !st.on(c.cfg.Level) {
			continue
		}
		before := c.size()
		t0 := time.Now()
		if err := st.run(c); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		nanos := time.Since(t0).Nanoseconds()

		after := c.size()
		if c.image != nil {
			after = 0
			for _, n := range c.report.CodeSizes {
				after += n
			}
		}

		var verifyNanos int64
		if verify {
			v0 := time.Now()
			if err := c.verifyIR(); err != nil {
				return fmt.Errorf("after %s: IR verification failed: %w", st.name, err)
			}
			verifyNanos = time.Since(v0).Nanoseconds()
		}

		c.report.Passes = append(c.report.Passes, PassTiming{
			Pass:         st.name,
			Nanos:        nanos,
			InstrsBefore: before,
			InstrsAfter:  after,
			VerifyNanos:  verifyNanos,
		})
		if err := c.dump(st.name); err != nil {
			return fmt.Errorf("%s: dump: %w", st.name, err)
		}
	}
	return nil
}

// size counts whole-program IR instructions: the top-level program plus
// every merged aggregate body.
func (c *compilation) size() int {
	n := irSize(c.prog)
	for _, m := range c.merged {
		n += irSize(m.Prog)
	}
	return n
}

// verifyIR checks the whole program and every merged aggregate body.
func (c *compilation) verifyIR() error {
	if err := ir.Verify(c.prog); err != nil {
		return err
	}
	for i, m := range c.merged {
		if err := ir.Verify(m.Prog); err != nil {
			return fmt.Errorf("aggregate %d (%v): %w", i, m.Agg.PPFs, err)
		}
	}
	return nil
}

// dump prints the current IR when the pass matches Config.DumpPass ("all"
// selects every pass). With DumpDir set, each pass writes one file named
// <prefix>-<seq>-<pass>.ir; otherwise output goes to DumpWriter (default
// stdout).
func (c *compilation) dump(pass string) error {
	cfg := c.cfg
	if cfg.DumpPass == "" || (cfg.DumpPass != "all" && cfg.DumpPass != pass) {
		return nil
	}
	prefix := cfg.DumpPrefix
	if prefix == "" {
		prefix = "prog"
	}
	var w io.Writer
	var closer io.Closer
	if cfg.DumpDir != "" {
		if err := os.MkdirAll(cfg.DumpDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(cfg.DumpDir,
			fmt.Sprintf("%s-%02d-%s.ir", prefix, c.dumpSeq, pass)))
		if err != nil {
			return err
		}
		w = f
		closer = f
	} else if cfg.DumpWriter != nil {
		w = cfg.DumpWriter
	} else {
		w = os.Stdout
	}
	c.dumpSeq++
	err := writeDump(w, pass, prefix, c.prog, c.merged)
	if closer != nil {
		if cerr := closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writeDump renders one dump point: the whole program, then every merged
// aggregate body, all in deterministic order (ir.Fprint).
func writeDump(w io.Writer, pass, prefix string, prog *ir.Program, merged []*aggregate.Merged) error {
	if _, err := fmt.Fprintf(w, ";; %s after pass %s\n", prefix, pass); err != nil {
		return err
	}
	if err := ir.Fprint(w, prog); err != nil {
		return err
	}
	for i, m := range merged {
		if _, err := fmt.Fprintf(w, ";; aggregate %d (%s) %v\n",
			i, m.Agg.Target, m.Agg.PPFs); err != nil {
			return err
		}
		if err := ir.Fprint(w, m.Prog); err != nil {
			return err
		}
	}
	return nil
}
