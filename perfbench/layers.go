package main

import (
	"runtime/metrics"
	"strings"

	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/ixp"
)

// layerNames is every per-layer metric a traced run prints, in BENCHMARK.json
// order. A workload that does not reach a layer through a call of its own
// reports 0 for that layer's metrics.
var layerNames = func() []string {
	names := []string{
		"inputs.ms", "frontend.parse_ms", "frontend.check_ms", "frontend.lower_ms",
		"compile.ms", "compile.self_ms", "compile.alloc_mb",
	}
	for _, p := range driver.PassNames() {
		names = append(names, "pass."+sanitize(p)+".ms", "pass."+sanitize(p)+".instrs_out")
	}
	return append(names,
		"exp.table1.ms", "exp.table1.compile_ms", "exp.fig6.ms", "exp.fig6.alloc_mb",
		"report.ms", "report.bytes",
		"cg.code_instrs", "cg.stages",
		"session.compile_ms", "session.recompile_ms", "session.passes_run",
		"session.passes_skipped", "session.skip_frac",
		"load.ms", "load.alloc_mb", "control.ms",
		"sim.warmup_ms", "sim.ms", "sim.alloc_mb", "sim.ns_per_cycle", "sim.ns_per_instr",
		"sim.me_instrs", "sim.tx_pkts", "sim.rx_dropped", "sim.chan_overflows",
		"sim.acc_per_pkt.pkt_scratch", "sim.acc_per_pkt.pkt_sram", "sim.acc_per_pkt.pkt_dram",
		"sim.acc_per_pkt.app_scratch", "sim.acc_per_pkt.app_sram",
		"sim.ctrl_sat.scratch", "sim.ctrl_sat.sram", "sim.ctrl_sat.dram",
		"sim.me_util", "sim.cam_hit_frac", "sim.cam_clears",
		"churn.updates_applied", "churn.updates_failed",
		"bench.self_ms",
		"trace.run_cpu_s", "trace.untraced_run_cpu_s", "trace.overhead_cpu_s",
	)
}()

// spanMetric maps a span name to the per-layer metric its self time feeds.
var spanMetric = map[string]string{
	"inputs":            "inputs.ms",
	"frontend.parse":    "frontend.parse_ms",
	"frontend.check":    "frontend.check_ms",
	"frontend.lower":    "frontend.lower_ms",
	"compile":           "compile.ms",
	"exp.table1":        "exp.table1.ms",
	"exp.fig6":          "exp.fig6.ms",
	"report":            "report.ms",
	"session.compile":   "session.compile_ms",
	"session.recompile": "session.recompile_ms",
	"load":              "load.ms",
	"control":           "control.ms",
	"sim.warmup":        "sim.warmup_ms",
	"sim":               "sim.ms",
	"setup":             "bench.self_ms",
	"run":               "bench.self_ms",
	"unit":              "bench.self_ms",
}

// sanitize makes a pass name usable in a metric name: every character
// other than a letter, digit, '_', '.' or '-' becomes '_'.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '.', r == '-':
			return r
		}
		return '_'
	}, name)
}

// heapAllocs returns the bytes allocated on the heap since the process
// started.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func ms(nanos int64) float64 { return float64(nanos) / 1e6 }

// addPasses adds one compile's per-pass times to l, and with sizes also
// the instruction count each pass left behind.
func addPasses(l map[string]float64, passes []driver.PassTiming, sizes bool) {
	for _, p := range passes {
		key := "pass." + sanitize(p.Pass)
		l[key+".ms"] += ms(p.Nanos)
		if sizes {
			l[key+".instrs_out"] += float64(p.InstrsAfter)
		}
	}
}

// passMS is the summed wall time of a compile's passes.
func passMS(passes []driver.PassTiming) float64 {
	t := 0.0
	for _, p := range passes {
		t += ms(p.Nanos)
	}
	return t
}

// addCode adds a compiled image's code size and pipeline stage count.
func addCode(l map[string]float64, codeSizes []int, stages int) {
	for _, n := range codeSizes {
		l["cg.code_instrs"] += float64(n)
	}
	l["cg.stages"] += float64(stages)
}

// table1 holds the Table 1 columns of one measured window.
type table1 struct {
	pktScratch, pktSRAM, pktDRAM, appScratch, appSRAM float64
}

func table1Of(st *ixp.Stats) table1 {
	return table1{
		pktScratch: st.PerPacket(cg.MemScratch, cg.ClassPacketRing),
		pktSRAM:    st.PerPacket(cg.MemSRAM, cg.ClassPacketMeta),
		pktDRAM:    st.PerPacket(cg.MemDRAM, cg.ClassPacketData),
		appScratch: st.PerPacket(cg.MemScratch, cg.ClassAppData),
		appSRAM:    st.PerPacket(cg.MemSRAM, cg.ClassAppData),
	}
}

func table1OfPoint(p *harness.ReportPoint) table1 {
	return table1{
		pktScratch: p.PerPacket["pkt_scratch"],
		pktSRAM:    p.PerPacket["pkt_sram"],
		pktDRAM:    p.PerPacket["pkt_dram"],
		appScratch: p.PerPacket["app_scratch"],
		appSRAM:    p.PerPacket["app_sram"],
	}
}

func (t table1) total() float64 {
	return t.pktScratch + t.pktSRAM + t.pktDRAM + t.appScratch + t.appSRAM
}

// simLayer accumulates the simulator's own counters over the measured
// windows of one repetition.
type simLayer struct {
	windows                                   int
	instrs, tx, rxDropped, chanOv             uint64
	camLookups, camHits, camClears            uint64
	acc                                       table1
	satScratch, satSRAM, satDRAM, util, utilN float64
}

// addStats folds one machine's measured-window statistics in.
func (s *simLayer) addStats(st *ixp.Stats) {
	s.windows++
	for _, n := range st.MEInstrs {
		s.instrs += n
	}
	s.tx += st.TxPackets
	s.rxDropped += st.RxDropped
	s.chanOv += st.ChanOverflows()
	for i := range st.CAMLookups {
		s.camLookups += st.CAMLookups[i]
		s.camHits += st.CAMHits[i]
		s.camClears += st.CAMClears[i]
	}
	s.addTable1(table1Of(st))
	s.satScratch += st.Saturation(cg.MemScratch)
	s.satSRAM += st.Saturation(cg.MemSRAM)
	s.satDRAM += st.Saturation(cg.MemDRAM)
	for i := range st.MEBusy {
		if st.MEInstrs[i] > 0 {
			s.util += st.Utilization(i)
			s.utilN++
		}
	}
}

// addPoint folds one bench-report point (a Table 1 row) in; the report
// carries no instruction or CAM counters.
func (s *simLayer) addPoint(p *harness.ReportPoint) {
	s.windows++
	s.tx += p.TxPackets
	s.addTable1(table1OfPoint(p))
	if t := p.Telemetry; t != nil {
		s.satScratch += t.CtrlSaturation["scratch"]
		s.satSRAM += t.CtrlSaturation["sram"]
		s.satDRAM += t.CtrlSaturation["dram"]
		for _, u := range t.MEUtilization {
			if u > 0 { // an ME the point did not enable
				s.util += u
				s.utilN++
			}
		}
	}
}

func (s *simLayer) addTable1(t table1) {
	s.acc.pktScratch += t.pktScratch
	s.acc.pktSRAM += t.pktSRAM
	s.acc.pktDRAM += t.pktDRAM
	s.acc.appScratch += t.appScratch
	s.acc.appSRAM += t.appSRAM
}

// into writes the counters to l: sums for counts, means over windows for
// per-packet accesses and saturations, and the mean over busy MEs for
// utilization.
func (s *simLayer) into(l map[string]float64) {
	if s.windows == 0 {
		return
	}
	w := float64(s.windows)
	l["sim.me_instrs"] = float64(s.instrs)
	l["sim.tx_pkts"] = float64(s.tx)
	l["sim.rx_dropped"] = float64(s.rxDropped)
	l["sim.chan_overflows"] = float64(s.chanOv)
	l["sim.cam_clears"] = float64(s.camClears)
	if s.camLookups > 0 {
		l["sim.cam_hit_frac"] = float64(s.camHits) / float64(s.camLookups)
	}
	l["sim.acc_per_pkt.pkt_scratch"] = s.acc.pktScratch / w
	l["sim.acc_per_pkt.pkt_sram"] = s.acc.pktSRAM / w
	l["sim.acc_per_pkt.pkt_dram"] = s.acc.pktDRAM / w
	l["sim.acc_per_pkt.app_scratch"] = s.acc.appScratch / w
	l["sim.acc_per_pkt.app_sram"] = s.acc.appSRAM / w
	l["sim.ctrl_sat.scratch"] = s.satScratch / w
	l["sim.ctrl_sat.sram"] = s.satSRAM / w
	l["sim.ctrl_sat.dram"] = s.satDRAM / w
	if s.utilN > 0 {
		l["sim.me_util"] = s.util / s.utilN
	}
}
