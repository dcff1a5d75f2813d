// Package driver assembles the full Shangri-La compilation pipeline of
// Figure 5: parse → type check → lower → functional profiling → inlining
// and scalar optimization → SOAR → PAC → aggregation and per-aggregate
// merging → per-aggregate optimization → PHR → SWC → final cleanup → code
// generation. The optimization level axis matches the paper's evaluation
// (§6.2): BASE < -O1 < -O2 < +PAC < +SOAR < +PHR < +SWC, cumulative.
//
// CompileIR runs one ordered table of stages (pipeline.go); each stage has
// a name, a predicate saying at which levels it runs, and a body. After
// every stage the loop can verify IR invariants (Config.VerifyIR — on by
// default under `go test`), records the stage's time, IR sizes and verify
// time in Report.Passes, and can dump the IR (Config.DumpPass).
package driver

import (
	"bytes"
	"fmt"
	"io"

	"shangrila/internal/aggregate"
	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
	"shangrila/internal/cg"
	"shangrila/internal/ir"
	"shangrila/internal/lower"
	"shangrila/internal/opt/pac"
	"shangrila/internal/opt/phr"
	"shangrila/internal/opt/soar"
	"shangrila/internal/opt/swc"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
)

// Level is the cumulative optimization level.
type Level int

// Optimization levels (each includes all previous ones).
const (
	LevelBase Level = iota
	LevelO1
	LevelO2
	LevelPAC
	LevelSOAR
	LevelPHR
	LevelSWC
)

var levelNames = [...]string{"BASE", "-O1", "-O2", "+PAC", "+SOAR", "+PHR", "+SWC"}

func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return fmt.Sprintf("Level(%d)", int(l))
	}
	return levelNames[l]
}

// Levels lists every level in evaluation order.
func Levels() []Level {
	return []Level{LevelBase, LevelO1, LevelO2, LevelPAC, LevelSOAR, LevelPHR, LevelSWC}
}

// Config parameterizes a compilation.
type Config struct {
	Level Level
	// ProfileTrace drives the Functional profiler.
	ProfileTrace []*packet.Packet
	// Controls populate tables before profiling (and are the same calls a
	// deployment makes at boot).
	Controls []profiler.Control
	// Aggregation settings; zero value uses aggregate.DefaultConfig.
	Agg aggregate.Config
	// SWC settings; zero value uses swc.DefaultConfig.
	SWC swc.Config
	// VerifyIR controls post-pass IR verification. The zero value
	// (VerifyAuto) verifies under `go test` and skips otherwise.
	VerifyIR VerifyMode
	// DumpPass names a pass (one of PassNames) after which the whole IR
	// (program plus merged aggregate bodies) is printed; "all" dumps
	// every pass.
	DumpPass string
	// DumpDir writes each dump to <DumpDir>/<DumpPrefix>-<NN>-<pass>.ir.
	// Empty means dumps go to DumpWriter (default os.Stdout).
	DumpDir string
	// DumpWriter receives dumps when DumpDir is empty.
	DumpWriter io.Writer
	// DumpPrefix names dump files (typically the app name and level);
	// empty uses "prog".
	DumpPrefix string
}

// aggConfig resolves the aggregation settings (zero value → defaults).
func (c Config) aggConfig() aggregate.Config {
	if c.Agg.NumMEs == 0 {
		return aggregate.DefaultConfig()
	}
	return c.Agg
}

// swcConfig resolves the SWC settings (zero value → defaults).
func (c Config) swcConfig() swc.Config {
	if c.SWC.MaxLineWords == 0 {
		return swc.DefaultConfig()
	}
	return c.SWC
}

// PassTiming records one Figure-5 pipeline stage: wall-clock time, the
// whole-program IR size before and after (codegen reports CGIR size
// after), and the time spent verifying the result when Config.VerifyIR is
// enabled.
type PassTiming struct {
	Pass         string `json:"pass"`
	Nanos        int64  `json:"nanos"`
	InstrsBefore int    `json:"instrs_before"`
	InstrsAfter  int    `json:"instrs_after"`
	VerifyNanos  int64  `json:"verify_nanos,omitempty"`
}

// Report summarizes what the compiler did.
type Report struct {
	Level        Level
	Plan         *aggregate.Plan
	ProfileStats *profiler.Stats
	SOAR         *soar.Stats
	PAC          *pac.Stats
	PHR          *phr.Stats
	SWCCands     []*swc.Candidate
	// CodeSizes per ME aggregate (CGIR instructions).
	CodeSizes []int
	// Passes holds one timing entry per executed pipeline stage, in
	// execution order.
	Passes []PassTiming
}

// irSize counts IR instructions across every function of a program.
func irSize(p *ir.Program) int {
	if p == nil {
		return 0
	}
	n := 0
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// Result bundles everything the runtime needs.
type Result struct {
	Image  *cg.Image
	Prog   *ir.Program // post-optimization whole program (XScale path)
	Report *Report
	// Merged holds the per-aggregate merged programs in final form, so
	// callers can render the complete IR state (DumpIR) — the artifact
	// the recompile-vs-cold differential compares byte for byte.
	Merged []*aggregate.Merged
}

// DumpIR renders the result's final IR — the whole program plus every
// merged aggregate body — in the deterministic -dump-ir format. Two
// compiles that produced semantically identical code produce identical
// bytes.
func (r *Result) DumpIR() ([]byte, error) {
	var b bytes.Buffer
	if err := writeDump(&b, "final", "prog", r.Prog, r.Merged); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// LowerSource parses, checks and lowers Baker source to IR (the frontend
// half of the pipeline). Callers that need the program's types before
// choosing a profile trace use this, then CompileIR.
func LowerSource(file, src string) (*ir.Program, error) {
	astProg, err := parser.Parse(file, src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	tp, err := types.Check(astProg)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	prog, err := lower.Lower(tp)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return prog, nil
}

// CompileSource runs the full pipeline over Baker source text.
func CompileSource(file, src string, cfg Config) (*Result, error) {
	prog, err := LowerSource(file, src)
	if err != nil {
		return nil, err
	}
	return CompileIR(prog, cfg)
}

// CompileIR runs the pipeline from lowered IR: every stage scheduled at
// cfg.Level, in order, rewriting prog in place.
func CompileIR(prog *ir.Program, cfg Config) (*Result, error) {
	c := &compilation{cfg: cfg, prog: prog, report: &Report{Level: cfg.Level}}
	if err := c.run(); err != nil {
		return nil, err
	}
	return &Result{Image: c.image, Prog: prog, Report: c.report, Merged: c.merged}, nil
}
