package harness

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
)

// sweepTestPoints is a small app × level × ME grid exercising the
// compile cache (several points share a compilation) and mixed seeds.
func sweepTestPoints() []Point {
	var points []Point
	for _, a := range []*apps.App{apps.L3Switch(), apps.MPLS()} {
		for _, lvl := range []driver.Level{driver.LevelBase, driver.LevelSWC} {
			for _, n := range []int{2, 4} {
				points = append(points, Point{App: a, Level: lvl, NumMEs: n, Seed: 7})
			}
		}
	}
	return points
}

func sweepOpts(workers int) []Option {
	return []Option{
		WithWindows(60_000, 200_000),
		WithTrace(128),
		WithTelemetry(20_000),
		WithWorkers(workers),
	}
}

// TestSweepDeterminism requires byte-identical canonical reports from a
// serial and a fully parallel sweep over the same points. `make race`
// runs it at several scheduler widths (-cpu 1,2,8).
func TestSweepDeterminism(t *testing.T) {
	points := sweepTestPoints()
	serial, err := Sweep(points, sweepOpts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(points, sweepOpts(runtime.GOMAXPROCS(0))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(points) || len(parallel) != len(points) {
		t.Fatalf("result counts %d/%d, want %d", len(serial), len(parallel), len(points))
	}
	for i, r := range serial {
		if r.App != points[i].App.Name || r.Level != points[i].Level ||
			r.NumMEs != points[i].NumMEs || r.Seed != points[i].Seed {
			t.Fatalf("result %d out of order: %s %v %dME seed %d", i,
				r.App, r.Level, r.NumMEs, r.Seed)
		}
	}
	a, err := BuildReport(serial).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildReport(parallel).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		for i := range serial {
			if serial[i].Gbps != parallel[i].Gbps || serial[i].TxPackets != parallel[i].TxPackets {
				t.Errorf("point %d diverged: %.4f/%d vs %.4f/%d",
					i, serial[i].Gbps, serial[i].TxPackets,
					parallel[i].Gbps, parallel[i].TxPackets)
			}
		}
		t.Fatal("canonical reports differ between 1 worker and GOMAXPROCS workers")
	}
}

// TestSweepTelemetryPopulated checks every sweep point carries the
// telemetry the bench report promises.
func TestSweepTelemetry(t *testing.T) {
	points := sweepTestPoints()[:2]
	results, err := Sweep(points, sweepOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		tel := r.Telemetry
		if tel == nil {
			t.Fatalf("point %d: no telemetry", i)
		}
		if len(tel.MEUtilization) == 0 || len(tel.RingMaxOcc) == 0 {
			t.Errorf("point %d: empty telemetry summary %+v", i, tel)
		}
		busy := 0.0
		for _, u := range tel.MEUtilization {
			busy += u
		}
		if busy <= 0 {
			t.Errorf("point %d: all MEs idle", i)
		}
		if len(tel.Series) == 0 {
			t.Errorf("point %d: no sampled series", i)
		}
		if len(r.CompilePasses) == 0 {
			t.Errorf("point %d: no compile pass timings", i)
		}
	}
}

// TestSweepParallelSpeedup bounds the win from the worker pool: the
// parallel Table 1 grid must beat the serial one by a coarse margin.
// Wall-clock sensitive, so -short skips it.
func TestSweepParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison skipped in -short mode")
	}
	// GOMAXPROCS can be forced above the machine size (-cpu flag); real
	// speedup needs real CPUs.
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	points := sweepTestPoints()
	timed := func(workers int) time.Duration {
		t0 := time.Now()
		if _, err := Sweep(points, sweepOpts(workers)...); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	// Warm once so neither measurement pays one-time costs.
	timed(runtime.GOMAXPROCS(0))
	serial := timed(1)
	parallel := timed(runtime.GOMAXPROCS(0))
	t.Logf("serial %v, parallel %v (%.2fx, %d CPUs)",
		serial, parallel, float64(serial)/float64(parallel), runtime.GOMAXPROCS(0))
	if float64(serial) < 1.3*float64(parallel) {
		t.Errorf("parallel sweep not measurably faster: serial %v vs parallel %v",
			serial, parallel)
	}
}
