GO ?= go

.PHONY: all build test vet fmt-check race churn-claims perfbench verify fuzz-ci bench bench-smoke bench-loadlatency bench-churn bench-cluster clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# Race-check the concurrent packages: the sweep runner's worker pool,
# the metrics instruments it samples, the trace-enabled machine tests,
# and the multi-NPU cluster scheduler's shared balancer and epoch
# barriers. The second leg re-runs the harness determinism tests — the
# code that still fans work out across goroutines — at several
# GOMAXPROCS settings, so reports are checked byte-identical under
# contention and on a single P.
race:
	$(GO) test -race ./internal/harness/ ./internal/metrics/ ./internal/ixp/ ./internal/cluster/
	$(GO) test -race -cpu 1,2,8 -run 'TestSweepDeterminism|TestClusterDeterminism|TestLoadLatencyDeterminism|TestChurnDeterminism' ./internal/harness/

# The dynamic-control-plane gate, run explicitly (and with -count=1, so
# a cached `test` result can never mask a regression): SWC delayed-update
# coherency under an update storm, rule-flip convergence, byte-identical
# session-recompile-vs-cold images, and churn report determinism.
churn-claims:
	$(GO) test -count=1 -run \
		'TestSWCCoherencyUnderChurnStorm|TestFirewallRuleFlipConverges|TestRecompilePacketDifferential|TestChurnDeterminism' \
		./internal/harness/

# The benchmark is its own Go module, so `go build ./...` never reaches
# it; vet and test it here so an internal API change cannot break it
# unnoticed. Runs offline and writes nothing under perfbench/.
perfbench:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test .

# Tier-1 verification: everything CI gates on. `test` includes the
# checked-in fuzz-corpus replay (internal/harness/testdata/fuzz-corpus),
# so every previously minimized compiler-bug reproducer re-runs through
# the full differential oracle on each verify.
verify: build vet fmt-check test race churn-claims perfbench

# Compiler-fuzzing gate (~1-2 min): 500 seeded random Baker programs,
# each compiled at every cumulative optimization level and checked
# packet-for-packet against the host reference interpreter, plus one
# invalid mutant per program through the frontend negative checker. The
# seed is fixed so a red run replays exactly:
#   go run ./cmd/shangrila-bench -experiment fuzz -fuzz-n 500 -fuzz-seed 4242
# Campaign stats (programs/sec, feature histogram, minimized failures)
# land in fuzz_report.json for CI to archive.
fuzz-ci: build
	$(GO) run ./cmd/shangrila-bench -experiment fuzz -fuzz-n 500 -fuzz-seed 4242 \
		-report fuzz_report.json
	@test -s fuzz_report.json && echo "fuzz-ci: report OK"

# Host-performance benchmark suite → BENCH_sim.json (ns/op, B/op,
# allocs/op and custom metrics per benchmark). CI uploads the file as an
# artifact so simulator throughput is comparable per commit.
bench: build
	$(GO) test -run xxx -bench 'BenchmarkSimulator$$|BenchmarkCluster$$|BenchmarkFigure6$$|BenchmarkCompiler$$' \
		-benchmem . > /tmp/bench_raw.txt
	$(GO) test -run xxx -bench 'BenchmarkEventCore$$|BenchmarkTracerOverhead' \
		-benchmem ./internal/ixp/ >> /tmp/bench_raw.txt
	@cat /tmp/bench_raw.txt
	$(GO) run ./cmd/benchjson < /tmp/bench_raw.txt > BENCH_sim.json
	@echo "wrote BENCH_sim.json"

# Quick end-to-end pass over the evaluation binary: short windows, report
# written to a scratch location.
bench-smoke: build
	$(GO) run ./cmd/shangrila-bench -quick -experiment table1 -report /tmp/bench_report.json
	@test -s /tmp/bench_report.json && echo "bench-smoke: report OK"

# Short load-latency sweep: goodput/drop/latency curves per app at BASE
# and the -O default (+SWC), exported into the bench report with stall
# breakdowns, plus one representative run as a Chrome trace_event file.
bench-loadlatency: build
	$(GO) run ./cmd/shangrila-bench -quick -experiment loadlatency -stalls \
		-report bench_report.json -trace trace.json
	@test -s bench_report.json && echo "bench-loadlatency: report OK"
	@test -s trace.json && echo "bench-loadlatency: trace OK"

# Short churn experiment: per-app goodput/latency timelines under a
# control-plane update storm plus the recompile-latency distribution,
# written to its own report so CI can archive the timelines.
bench-churn: build
	$(GO) run ./cmd/shangrila-bench -quick -experiment churn -report churn_report.json
	@test -s churn_report.json && echo "bench-churn: report OK"

# Short multi-NPU cluster experiment: goodput scaling at doubling chip
# counts plus the chip-drain scenario on a 4-chip line card, every chip
# advancing on its own worker, written to its own report so CI can
# archive the topology and per-chip series.
bench-cluster: build
	$(GO) run ./cmd/shangrila-bench -quick -experiment cluster -chips 4 -workers 4 \
		-report cluster_report.json
	@test -s cluster_report.json && echo "bench-cluster: report OK"

clean:
	rm -f bench_report.json trace.json BENCH_sim.json churn_report.json cluster_report.json fuzz_report.json
