// Package harness reproduces the paper's evaluation (§6): Figure 6's
// memory micro-benchmark, Table 1's per-packet dynamic memory access
// counts, and Figures 13–15's packet forwarding rates for L3-Switch,
// Firewall and MPLS across optimization levels and enabled-ME counts.
//
// The evaluation engine measures one point with Run(app, ...Option) and
// fans whole parameter sweeps across worker goroutines with Sweep.
package harness

import (
	"fmt"
	"strings"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/opt/swc"
	"shangrila/internal/packet"
)

// RunConfig controls one measured simulation.
type RunConfig struct {
	NumMEs  int
	Warmup  int64 // cycles before measurement starts (queues fill)
	Measure int64 // measured cycles
	Seed    uint64
	TraceN  int // distinct packets in the cycled trace
}

// DefaultRunConfig returns the standard measurement window: long enough
// for thousands of packets at line rate, short enough to sweep many
// configurations.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		NumMEs:  6,
		Warmup:  150_000,
		Measure: 900_000,
		Seed:    1234,
		TraceN:  384,
	}
}

// Options converts a RunConfig to the equivalent Option list (bridge for
// pre-redesign callers).
func (c RunConfig) Options() []Option {
	return []Option{
		WithMEs(c.NumMEs),
		WithWindows(c.Warmup, c.Measure),
		WithSeed(c.Seed),
		WithTrace(c.TraceN),
	}
}

// Compile compiles an app at a level, generating its profile trace from
// its own generator.
func Compile(a *apps.App, lvl driver.Level, seed uint64) (*driver.Result, error) {
	s := defaultSettings()
	return compile(a, lvl, seed, &s)
}

// compile is Compile with the resolved option set: verification mode and
// IR dump selection thread through to the driver configuration.
func compile(a *apps.App, lvl driver.Level, seed uint64, s *settings) (*driver.Result, error) {
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	ptrace := a.Trace(prog.Types, seed, 512)
	return driver.CompileIR(prog, driverConfig(a, lvl, ptrace, s))
}

// driverConfig assembles the driver configuration shared by one-shot
// compiles and compile sessions.
func driverConfig(a *apps.App, lvl driver.Level, ptrace []*packet.Packet, s *settings) driver.Config {
	cfg := driver.Config{
		Level:        lvl,
		ProfileTrace: ptrace,
		Controls:     a.Controls,
		VerifyIR:     s.verify,
		DumpPass:     s.dumpPass,
		DumpDir:      s.dumpDir,
		DumpPrefix:   a.Name + "-" + lvl.String(),
	}
	if s.swcMaxCheck != 0 {
		// Start from the defaults: the driver only substitutes them for
		// the all-zero config, and a bare MaxCheckLimit would otherwise
		// zero every selection threshold.
		cfg.SWC = swc.DefaultConfig()
		cfg.SWC.MaxCheckLimit = s.swcMaxCheck
	}
	return cfg
}

// ---------------------------------------------------------------------------
// Table 1

// Table1Levels are the rows the paper reports (O2 and SOAR are skipped:
// "they only affect dynamic instruction counts").
func Table1Levels() []driver.Level {
	return []driver.Level{driver.LevelSWC, driver.LevelPHR, driver.LevelPAC,
		driver.LevelO1, driver.LevelBase}
}

// Table1 measures the per-packet dynamic memory access table for every
// app, fanning the app × level grid across the sweep runner's workers.
func Table1(cfg RunConfig, opts ...Option) ([]*Result, error) {
	var points []Point
	for _, a := range apps.All() {
		for _, lvl := range Table1Levels() {
			points = append(points, Point{
				App: a, Level: lvl, NumMEs: cfg.NumMEs, Seed: cfg.Seed,
			})
		}
	}
	return Sweep(points, append(cfg.Options(), opts...)...)
}

// FormatTable1 renders rows in the paper's Table 1 shape.
func FormatTable1(rows []*Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s | %8s %8s %8s | %8s %8s | %7s\n",
		"App", "Config", "Scratch", "SRAM", "DRAM", "Scratch", "SRAM", "Total")
	fmt.Fprintf(&b, "%-10s %-6s | %26s | %17s |\n", "", "", "packet accesses", "app accesses")
	prev := ""
	for _, r := range rows {
		if r.App != prev {
			fmt.Fprintln(&b, strings.Repeat("-", 78))
			prev = r.App
		}
		fmt.Fprintf(&b, "%-10s %-6s | %8.1f %8.1f %8.1f | %8.1f %8.1f | %7.1f\n",
			r.App, r.Level, r.PktScratch, r.PktSRAM, r.PktDRAM,
			r.AppScratch, r.AppSRAM, r.Total())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 13-15

// FigureSeries is one curve: forwarding rate per enabled-ME count.
type FigureSeries struct {
	App   string
	Level driver.Level
	Gbps  []float64 // index 0 = 1 ME
}

// FigureRates sweeps optimization levels × ME counts for one app
// (Figures 13, 14, 15) on the parallel sweep runner: each level compiles
// once, and its per-ME-count measurements share the compiled image.
func FigureRates(a *apps.App, cfg RunConfig, maxMEs int, opts ...Option) ([]*FigureSeries, error) {
	series, _, err := FigureResults(a, cfg, maxMEs, opts...)
	return series, err
}

// FigureResults is FigureRates plus the underlying per-point results (for
// report export).
func FigureResults(a *apps.App, cfg RunConfig, maxMEs int, opts ...Option) ([]*FigureSeries, []*Result, error) {
	levels := driver.Levels()
	var points []Point
	for _, lvl := range levels {
		for n := 1; n <= maxMEs; n++ {
			points = append(points, Point{App: a, Level: lvl, NumMEs: n, Seed: cfg.Seed})
		}
	}
	results, err := Sweep(points, append(cfg.Options(), opts...)...)
	if err != nil {
		return nil, nil, err
	}
	var out []*FigureSeries
	for i, lvl := range levels {
		s := &FigureSeries{App: a.Name, Level: lvl}
		for n := 1; n <= maxMEs; n++ {
			s.Gbps = append(s.Gbps, results[i*maxMEs+n-1].Gbps)
		}
		out = append(out, s)
	}
	return out, results, nil
}

// FormatFigure renders the series as the paper's figure data.
func FormatFigure(title string, series []*FigureSeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — forwarding rate (Gbps) vs enabled MEs\n", title)
	fmt.Fprintf(&b, "%-8s", "Config")
	if len(series) > 0 {
		for n := 1; n <= len(series[0].Gbps); n++ {
			fmt.Fprintf(&b, " %6dME", n)
		}
	}
	fmt.Fprintln(&b)
	for _, s := range series {
		fmt.Fprintf(&b, "%-8s", s.Level)
		for _, g := range s.Gbps {
			fmt.Fprintf(&b, " %8.2f", g)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
