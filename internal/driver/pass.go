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
	"shangrila/internal/metrics"
	"shangrila/internal/opt/soar"
	"shangrila/internal/profiler"
)

// FactKind identifies one cached analysis result in the compilation fact
// base. Passes declare the facts they require; the pass manager makes them
// available before Run and drops the ones a transform invalidates.
type FactKind int

const (
	// FactProfile is the functional profiler's Stats. It is produced by
	// the profile pass (there is no on-demand provider: profiling needs
	// the configured trace and control calls).
	FactProfile FactKind = iota
	// FactSOAR is the whole-program SOAR analysis. It has an on-demand
	// provider (soar.Analyze, which also annotates the IR in place), so
	// requiring it after an invalidation re-analyzes lazily.
	FactSOAR
	// FactPlan is the aggregation plan together with its channel
	// classification and merged per-aggregate programs, produced by the
	// aggregate pass.
	FactPlan
	numFacts
)

var factNames = [...]string{"profile", "soar", "plan"}

func (k FactKind) String() string {
	if k < 0 || int(k) >= len(factNames) {
		return fmt.Sprintf("fact(%d)", int(k))
	}
	return factNames[k]
}

// facts is the typed analysis-fact cache threaded through a compilation.
// It replaces the ad-hoc locals the monolithic pipeline used to hand from
// stage to stage.
type facts struct {
	valid   [numFacts]bool
	profile *profiler.Stats
	soar    *soar.Stats
	plan    *aggregate.Plan
	classes map[*types.Channel]aggregate.ChannelClass
}

// Context is the state a Pass operates on: the whole program, the merged
// per-aggregate programs once aggregation has run, the accumulating report
// and the fact base.
type Context struct {
	Cfg    Config
	Prog   *ir.Program
	Merged []*aggregate.Merged
	Report *Report
	// Image is set by the codegen pass.
	Image *cg.Image

	facts facts
	reg   *metrics.Registry

	// factGuard, when non-nil, is the set of facts the running pass
	// declared in Requires (or produced itself during this Run). Reading
	// any other fact through the typed accessors records a violation:
	// that is the undeclared dependency that would let a reordered
	// pipeline read a missing or stale analysis. Installed around
	// Pass.Run only — ensure and the manager itself read freely.
	factGuard map[FactKind]bool
	guardErr  error
}

// noteFactRead enforces the Requires contract while a pass runs.
// SOARIfValid is deliberately not routed here: it is the documented
// optional read (the code generator forwards SOAR facts when a pipeline
// happens to have them and passes nil otherwise), so it cannot create a
// hidden hard dependency.
func (ctx *Context) noteFactRead(k FactKind) {
	if ctx.factGuard == nil || ctx.factGuard[k] {
		return
	}
	if ctx.guardErr == nil {
		ctx.guardErr = fmt.Errorf("undeclared read of %v fact (missing Requires declaration)", k)
	}
}

// Profile returns the cached profiler stats (nil before the profile pass
// has run; passes that declare FactProfile in Requires never see nil).
func (ctx *Context) Profile() *profiler.Stats {
	ctx.noteFactRead(FactProfile)
	return ctx.facts.profile
}

// SetProfile installs the profiler stats fact.
func (ctx *Context) SetProfile(s *profiler.Stats) {
	ctx.facts.profile = s
	ctx.facts.valid[FactProfile] = true
	if ctx.factGuard != nil {
		ctx.factGuard[FactProfile] = true // producer may read its own fact
	}
}

// SOAR returns the whole-program SOAR facts, analyzing (and annotating the
// IR) on demand when the cache is empty or invalidated.
func (ctx *Context) SOAR() *soar.Stats {
	ctx.noteFactRead(FactSOAR)
	if !ctx.facts.valid[FactSOAR] {
		ctx.facts.soar = soar.Analyze(ctx.Prog)
		ctx.facts.valid[FactSOAR] = true
	}
	return ctx.facts.soar
}

// SOARIfValid returns the cached SOAR facts without computing them: nil at
// levels whose pipeline never analyzes (the code generator passes nil on).
// It is exempt from the Requires guard — an optional read by design.
func (ctx *Context) SOARIfValid() *soar.Stats {
	if !ctx.facts.valid[FactSOAR] {
		return nil
	}
	return ctx.facts.soar
}

// Plan returns the aggregation plan and channel classification facts.
func (ctx *Context) Plan() (*aggregate.Plan, map[*types.Channel]aggregate.ChannelClass) {
	ctx.noteFactRead(FactPlan)
	return ctx.facts.plan, ctx.facts.classes
}

// SetPlan installs the aggregation facts.
func (ctx *Context) SetPlan(p *aggregate.Plan, classes map[*types.Channel]aggregate.ChannelClass) {
	ctx.facts.plan = p
	ctx.facts.classes = classes
	ctx.facts.valid[FactPlan] = true
	if ctx.factGuard != nil {
		ctx.factGuard[FactPlan] = true
	}
}

// Invalidate drops cached facts (a transform that moved packet accesses
// invalidates FactSOAR, and the next pass requiring it re-analyzes).
func (ctx *Context) Invalidate(kinds ...FactKind) {
	for _, k := range kinds {
		ctx.facts.valid[k] = false
	}
}

// ensure makes one required fact available, computing it when an on-demand
// provider exists and failing loudly on a mis-ordered pipeline otherwise.
func (ctx *Context) ensure(k FactKind) error {
	if ctx.facts.valid[k] {
		return nil
	}
	if k == FactSOAR {
		ctx.SOAR()
		return nil
	}
	return fmt.Errorf("required %v fact not produced by an earlier pass", k)
}

// Pass is one stage of the compilation pipeline.
type Pass interface {
	// Name is the stable pass identifier used in Report.Passes, metrics
	// names and -dump-ir selection.
	Name() string
	// Requires lists the analysis facts the manager must make available
	// before Run.
	Requires() []FactKind
	// Invalidates lists the facts Run leaves stale.
	Invalidates() []FactKind
	Run(*Context) error
}

// afterSizer lets a pass report a different "after" size than the IR
// instruction count (codegen reports generated CGIR instructions).
type afterSizer interface {
	AfterSize(*Context) int
}

// PassInfo is one registry entry: the pass name, the paper stage it
// implements, the levels at which the default pipeline schedules it, and
// its constructor.
type PassInfo struct {
	Name string
	// Stage maps the pass to the paper's Figure 5 pipeline stage.
	Stage string
	// Enabled reports whether the default pipeline schedules the pass at
	// the given cumulative level.
	Enabled func(Level) bool
	// New builds the pass for one compilation.
	New func(cfg Config) Pass
}

var passRegistry []PassInfo

// RegisterPass adds a pass to the registry in pipeline order. It panics on
// a duplicate name: names key metrics, dumps and report rows.
func RegisterPass(info PassInfo) {
	for _, p := range passRegistry {
		if p.Name == info.Name {
			panic(fmt.Sprintf("driver: duplicate pass %q", info.Name))
		}
	}
	passRegistry = append(passRegistry, info)
}

// Passes returns the registered passes in pipeline order.
func Passes() []PassInfo {
	return append([]PassInfo(nil), passRegistry...)
}

// PassNames returns every registered pass name in pipeline order.
func PassNames() []string {
	names := make([]string, len(passRegistry))
	for i, p := range passRegistry {
		names[i] = p.Name
	}
	return names
}

// PipelineFor builds the declarative pipeline for a configuration from the
// pass registry: every registered pass enabled at cfg.Level, in
// registration order.
func PipelineFor(cfg Config) []Pass {
	var out []Pass
	for _, info := range passRegistry {
		if info.Enabled == nil || info.Enabled(cfg.Level) {
			out = append(out, info.New(cfg))
		}
	}
	return out
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

// runner executes a pipeline over a Context: per-pass timing, IR size
// deltas, post-pass verification, metrics and dump hooks.
type runner struct {
	ctx    *Context
	verify bool
	// dumpSeq numbers dump files so pipeline order survives in a listing.
	dumpSeq int
}

func newRunner(prog *ir.Program, cfg Config) *runner {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &runner{
		ctx: &Context{
			Cfg:    cfg,
			Prog:   prog,
			Report: &Report{Level: cfg.Level},
			reg:    reg,
		},
		verify: cfg.VerifyIR.enabled(),
	}
}

// size counts whole-program IR instructions: the top-level program plus
// every merged aggregate body.
func (r *runner) size() int {
	n := irSize(r.ctx.Prog)
	for _, m := range r.ctx.Merged {
		n += irSize(m.Prog)
	}
	return n
}

// runPass executes one pass: ensure requirements, run, invalidate, verify,
// record timing and metrics, dump when selected. All within the pass's
// timed window except verification, which is accounted separately.
func (r *runner) runPass(p Pass) error {
	ctx := r.ctx
	name := p.Name()
	before := r.size()
	t0 := time.Now()
	for _, k := range p.Requires() {
		if err := ctx.ensure(k); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	ctx.factGuard = make(map[FactKind]bool, len(p.Requires()))
	for _, k := range p.Requires() {
		ctx.factGuard[k] = true
	}
	ctx.guardErr = nil
	err := p.Run(ctx)
	guardErr := ctx.guardErr
	ctx.factGuard, ctx.guardErr = nil, nil
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if guardErr != nil {
		return fmt.Errorf("%s: %w", name, guardErr)
	}
	ctx.Invalidate(p.Invalidates()...)
	nanos := time.Since(t0).Nanoseconds()

	after := r.size()
	if s, ok := p.(afterSizer); ok {
		after = s.AfterSize(ctx)
	}

	var verifyNanos int64
	if r.verify {
		v0 := time.Now()
		if err := r.verifyIR(); err != nil {
			return fmt.Errorf("after %s: IR verification failed: %w", name, err)
		}
		verifyNanos = time.Since(v0).Nanoseconds()
	}

	ctx.Report.Passes = append(ctx.Report.Passes, PassTiming{
		Pass:         name,
		Nanos:        nanos,
		InstrsBefore: before,
		InstrsAfter:  after,
		VerifyNanos:  verifyNanos,
	})
	r.reg().Counter(metrics.PassRuns(name)).Inc()
	r.reg().Counter(metrics.PassNanos(name)).Add(nanos)
	r.reg().Counter(metrics.PassVerifyNanos(name)).Add(verifyNanos)
	r.reg().Gauge(metrics.PassSizeDelta(name)).Set(float64(after - before))

	if err := r.dump(name); err != nil {
		return fmt.Errorf("%s: dump: %w", name, err)
	}
	return nil
}

func (r *runner) reg() *metrics.Registry { return r.ctx.reg }

// verifyIR checks the whole program and every merged aggregate body.
func (r *runner) verifyIR() error {
	if err := ir.Verify(r.ctx.Prog); err != nil {
		return err
	}
	for i, m := range r.ctx.Merged {
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
func (r *runner) dump(pass string) error {
	cfg := r.ctx.Cfg
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
			fmt.Sprintf("%s-%02d-%s.ir", prefix, r.dumpSeq, pass)))
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
	r.dumpSeq++
	err := writeDump(w, pass, prefix, r.ctx)
	if closer != nil {
		if cerr := closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writeDump renders one dump point: the whole program, then every merged
// aggregate body, all in deterministic order (ir.Fprint).
func writeDump(w io.Writer, pass, prefix string, ctx *Context) error {
	if _, err := fmt.Fprintf(w, ";; %s after pass %s\n", prefix, pass); err != nil {
		return err
	}
	if err := ir.Fprint(w, ctx.Prog); err != nil {
		return err
	}
	for i, m := range ctx.Merged {
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
