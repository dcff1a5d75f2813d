package shangrila

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§6). Each benchmark iteration regenerates the experiment's
// full data series on the IXP2400 model and reports the headline number
// as a custom metric, printing the same rows/curves the paper shows with
// -v. Absolute Gbps depends on the calibrated machine model (see
// EXPERIMENTS.md); the shapes — who wins, by what factor, where the
// memory-bandwidth knees fall — are the reproduction targets.
//
// Run: go test -bench=. -benchmem
//
// Individual experiments:
//
//	go test -bench=BenchmarkFigure6 -v
//	go test -bench=BenchmarkTable1 -v
//	go test -bench=BenchmarkFigure13 -v   (L3-Switch)
//	go test -bench=BenchmarkFigure14 -v   (Firewall)
//	go test -bench=BenchmarkFigure15 -v   (MPLS)

import (
	"fmt"
	"os"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
)

func benchCfg() harness.RunConfig {
	cfg := harness.DefaultRunConfig()
	cfg.Warmup = 120_000
	cfg.Measure = 600_000
	return cfg
}

// BenchmarkFigure6 regenerates the memory micro-experiment: forwarding
// rate vs. memory accesses per 64-byte packet for each level and width,
// six MEs running a pure access loop.
func BenchmarkFigure6(b *testing.B) {
	var last []harness.Fig6Point
	for i := 0; i < b.N; i++ {
		pts, err := harness.Figure6(50_000, 300_000)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	b.Log("\n" + harness.FormatFigure6(last))
	for _, p := range last {
		if p.Accesses == 2 && p.Bytes == 8 {
			b.ReportMetric(p.Gbps, "Gbps@dram8Bx2")
		}
	}
}

// BenchmarkTable1 regenerates the per-packet dynamic memory access table
// for all three applications across the paper's configuration rows. The
// app × level grid fans out over the sweep runner's workers; the last
// iteration's results (with telemetry) are written to bench_report.json.
func BenchmarkTable1(b *testing.B) {
	var rows []*harness.Result
	for i := 0; i < b.N; i++ {
		r, err := harness.Table1(benchCfg(), harness.WithTelemetry(0))
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	b.Log("\n" + harness.FormatTable1(rows))
	f, err := os.Create("bench_report.json")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := harness.BuildReport(rows).WriteJSON(f); err != nil {
		b.Fatal(err)
	}
	b.Log("wrote bench_report.json")
	for _, r := range rows {
		if r.Level == driver.LevelSWC {
			b.ReportMetric(r.Total(), "accesses/pkt:"+r.App+"+SWC")
		}
	}
}

func benchFigure(b *testing.B, a *apps.App, title string) {
	var series []*harness.FigureSeries
	for i := 0; i < b.N; i++ {
		s, err := harness.FigureRates(a, benchCfg(), 6)
		if err != nil {
			b.Fatal(err)
		}
		series = s
	}
	b.Log("\n" + harness.FormatFigure(title, series))
	for _, s := range series {
		if s.Level == driver.LevelSWC {
			b.ReportMetric(s.Gbps[len(s.Gbps)-1], "Gbps@6ME+SWC")
		}
		if s.Level == driver.LevelBase {
			b.ReportMetric(s.Gbps[len(s.Gbps)-1], "Gbps@6ME-BASE")
		}
	}
}

// BenchmarkFigure13 regenerates the L3-Switch forwarding-rate curves
// (optimization level × enabled MEs).
func BenchmarkFigure13(b *testing.B) {
	benchFigure(b, apps.L3Switch(), "Figure 13: L3-Switch")
}

// BenchmarkFigure14 regenerates the Firewall forwarding-rate curves.
func BenchmarkFigure14(b *testing.B) {
	benchFigure(b, apps.Firewall(), "Figure 14: Firewall")
}

// BenchmarkFigure15 regenerates the MPLS forwarding-rate curves.
func BenchmarkFigure15(b *testing.B) {
	benchFigure(b, apps.MPLS(), "Figure 15: MPLS")
}

// BenchmarkCompiler measures whole-pipeline compile time for the largest
// application at full optimization (an ablation of compiler cost, not a
// paper figure).
func BenchmarkCompiler(b *testing.B) {
	a := apps.MPLS()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Compile(a, driver.LevelSWC, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures raw simulation speed (cycles simulated per
// wall second) on the optimized L3-Switch.
func BenchmarkSimulator(b *testing.B) {
	a := apps.L3Switch()
	res, err := harness.Compile(a, driver.LevelSWC, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	opts := append(cfg.Options(), harness.WithCompiled(res))
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(a, opts...); err != nil {
			b.Fatal(err)
		}
		cycles += cfg.Warmup + cfg.Measure
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkCluster measures the multi-NPU line-card simulation: the
// optimized L3-Switch replicated across doubling chip counts behind the
// ECMP flow-hash balancer, every chip advancing concurrently. The chip
// count is encoded in the sub-benchmark name ("chips=N") so benchjson
// keys each cluster size as its own series.
func BenchmarkCluster(b *testing.B) {
	a := apps.L3Switch()
	res, err := harness.Compile(a, driver.LevelSWC, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	for _, chips := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("chips=%d", chips), func(b *testing.B) {
			p := harness.ClusterParams{Chips: chips, Flows: 65_536, DrainChip: harness.NoDrain}
			opts := append(cfg.Options(),
				harness.WithCompiled(res), harness.WithWorkers(chips))
			b.ResetTimer()
			var last *harness.ClusterResult
			for i := 0; i < b.N; i++ {
				r, err := harness.ClusterRun(a, p, opts...)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			chipCycles := float64(chips) * float64(cfg.Warmup+cfg.Measure) * float64(b.N)
			b.ReportMetric(chipCycles/b.Elapsed().Seconds(), "simcycles/s")
			b.ReportMetric(last.AggregateGbps, "Gbps")
		})
	}
}
