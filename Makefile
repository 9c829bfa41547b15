# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

.PHONY: build test vet lint race determinism audit sweep-smoke trace-smoke fuzz-smoke resume-smoke metrics-smoke examples bench pgo pgo-check

# The build stamp: embedded in `noctool version` and v2 trace headers, so
# artifacts name the build that made them. Cache keys do not carry it —
# they carry network.ModelVersion, which only a change to a simulated
# result or a row bumps. Binaries built without the ldflags report "dev".
VERSION := $(shell git describe --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X tanoq/internal/network.buildVersion=$(VERSION)

build:
	go build -ldflags "$(LDFLAGS)" ./...

vet:
	go vet ./...

test:
	go test ./...

# lint mirrors CI's static-analysis job: vet and gofmt always (any file
# gofmt would rewrite fails the target), staticcheck when the tool is
# installed (go install honnef.co/go/tools/cmd/staticcheck@latest).
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "lint: gofmt would reformat:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# race runs the full test suite under the race detector (CI's test step).
race:
	go test -race ./...

# determinism is CI's named gate for the engine's core contract: the
# engine contract table (TestEngineContractEquivalent and its named
# views) and the worker-count/skip determinism suites, run twice (the
# pattern covers ...Equivalent..., ...Determinism and ...Deterministic...
# test names across network/runner/experiments/scenario/sim).
determinism:
	go test -run 'Equivalen|Determin' -count=2 ./...

# audit reruns the robustness and determinism suites with the engine's
# invariant auditor armed (TANOQ_AUDIT): every 256 cycles each network
# walks its free lists, event census, VC pools and credit windows and
# fails loudly on the first conservation violation, so silent state
# corruption cannot hide behind a passing fingerprint (CI's audit job).
# BacklogStaysOffArena adds the deepest source backlog in the suite, so
# the reachability walk checks minted queue heads under saturation.
audit:
	TANOQ_AUDIT=256 go test -run 'Fault|Retry|Recover|Watchdog|Audit|Equivalen|Determin|BacklogStaysOffArena' -count=1 ./...

# sweep-smoke exercises the declarative scenario path end to end (CI's
# sweep step), in-process. TestSweepStreamsWhatItCollects runs every
# scenario file under examples/sweep that sweeps — the quick Figure 4
# grid from a JSON file (a second time with -quick), the
# permutation-pattern grid (an include over the shared base), the
# closed-loop client sweep, a trace-replay sweep of the committed example
# capture, the aggressor/victim DoS sweep (victim slowdown column) among
# them — through `noctool sweep`, cached, at -parallel 1 and 0.
# TestSweepLayeredProfileMatchesFlat gates the
# resolver itself: -explain provenance against a committed golden, a
# profiled run against its hand-flattened equivalent (identical CSV
# modulo the wall-clock columns, dropped by name), and cache
# transparency (the profiled run against the warm cache the flat run
# filled must execute zero cells). TestDegradeMatchesGolden runs the
# fault-injection degradation sweep through `noctool degrade` at
# -parallel 1 and 0, as a table and as CSV: the worker counts print the
# same bytes, and the table matches examples/sweep/degrade.golden.
sweep-smoke:
	go test -count=1 -run 'SweepStreamsWhatItCollects|SweepLayeredProfileMatchesFlat|DegradeMatchesGolden' ./cmd/noctool

# trace-smoke proves the record→replay exactness contract end to end,
# in-process (TestTraceRecordReplaysFingerprint): record a short open-loop
# run's injection stream, replay the trace in the recorded cell and
# require equal delivery fingerprints (any byte of drift fails), then
# require a cell the watchdog kills to fail `trace record` with an error
# yet write its repro trace, whose replay trips the watchdog the same way.
trace-smoke:
	go test -count=1 -run TraceRecordReplay ./cmd/noctool

# resume-smoke proves durable sweep execution end to end, in-process
# (TestSweepResumeMatchesUninterrupted): cancel a cached sequential sweep
# after a few cells (finished cells checkpoint to the content-addressed
# store as they land), require its output to end with the interrupted
# marker and no -out report, resume with -resume and require the resumed
# CSV to match an uninterrupted run (modulo the wall-clock columns, which
# record each run's own elapsed time, dropped by name), then re-run fully
# cached with verification and require "executed 0" — a warm cache runs
# zero simulations. The cancel lands on a cell boundary, not a timer.
resume-smoke:
	go test -count=1 -run SweepResumeMatchesUninterrupted ./cmd/noctool

# metrics-smoke gates the observability surface end to end, in-process
# (TestMetricsSmoke). First the in-run half: `noctool timeline` over the
# committed telemetry scenario must reproduce its per-interval table
# byte-identically (probes ride the event calendar, so the series is as
# deterministic as the run). Then the live half: a short cached sweep
# serving -http on a free port answers /metrics, scraped from the sweep's
# per-cell hook while it runs, with exactly the committed exposition
# shape (families, HELP/TYPE lines and label sets are static from the
# first scrape; sample values are normalised), answers
# /debug/pprof/cmdline, and -progress emits its accounting line.
metrics-smoke:
	go test -count=1 -run MetricsSmoke ./cmd/noctool

# fuzz-smoke runs each fuzzer for a short budget (CI's fuzz step): the
# scenario decoders, the -set / TANOQ_SET_* override grammar, the cache
# payload decoder, the cache's entry and journal readers and the binary
# trace decoder over arbitrary
# file bytes, and the engine contract (fast = reference = ticked =
# chunked) over fuzzed configurations. `go test -fuzz FuzzScenarioDecode
# ./internal/scenario` (or FuzzSetGrammar, FuzzPayloadDecode, FuzzStoreLoad /
# FuzzJournalLoad ./internal/store, FuzzTraceDecode ./internal/workload,
# FuzzEngineContract ./internal/network) runs one open-ended.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzScenarioDecode -fuzztime 10s ./internal/scenario
	go test -run '^$$' -fuzz FuzzSetGrammar -fuzztime 10s ./internal/scenario
	go test -run '^$$' -fuzz FuzzPayloadDecode -fuzztime 10s ./internal/scenario
	go test -run '^$$' -fuzz FuzzStoreLoad -fuzztime 10s ./internal/store
	go test -run '^$$' -fuzz FuzzJournalLoad -fuzztime 10s ./internal/store
	go test -run '^$$' -fuzz FuzzTraceDecode -fuzztime 10s ./internal/workload
	go test -run '^$$' -fuzz FuzzEngineContract -fuzztime 10s ./internal/network

# examples runs each example program to completion (CI's examples step):
# every build compiles them, but only this catches one that fails at run
# time. They run in about 2.4 s together on a 2-vCPU box, plus compiling.
examples:
	go run ./examples/quickstart
	go run ./examples/adversary
	go run ./examples/topologysweep
	go run ./examples/consolidation

# bench smoke-runs the engine's three `testing.B` points once each:
# BenchmarkEngineCycles (steady Step), BenchmarkSaturatedCycles and
# BenchmarkSparseRun (event-bound, through Run), all in internal/network.
# They are for measuring while you work and for `make pgo`; the numbers a
# PR argues from come from `go run ./benchmark` (benchmark/README.md).
bench:
	go test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/network

# pgo re-records cmd/noctool/default.pgo, the profile every `go build
# ./cmd/noctool` applies. The recording workload is the three engine
# benchmarks at fixed iteration counts, about 16 s of samples: every
# topology's Step below saturation, Workload 1 on mesh_x4 and mecs under
# the three QoS modes (each network rebuilt six times, because its
# backlog grows with the cycles run), and the idle-tail, faulted-retry
# and closed-loop cells through Run. Go keys a profile by function name
# and line offset, so one recorded from the package's test binary applies
# to the tool. Re-record after any edit to Step, arbitrate or the wheels,
# and repeat the A/B of docs/LEDGER.md row (c) (three trees differing
# only in this file, alternating `bash benchmark/run.sh --workload
# steady_grid` and `saturated_adversarial`) before committing the new
# file.
pgo:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; set -x; \
	go test -run '^$$' -o $$d/pgo.test -bench EngineCycles -benchtime 3000000x -cpuprofile $$d/steady.prof ./internal/network; \
	go test -run '^$$' -o $$d/pgo.test -bench SaturatedCycles -benchtime 100000x -count 6 -cpuprofile $$d/saturated.prof ./internal/network; \
	go test -run '^$$' -o $$d/pgo.test -bench SparseRun -benchtime 20x -cpuprofile $$d/sparse.prof ./internal/network; \
	go tool pprof -proto $$d/steady.prof $$d/saturated.prof $$d/sparse.prof > cmd/noctool/default.pgo
	@echo "pgo: cmd/noctool/default.pgo re-recorded; run make pgo-check, rebuild and repeat LEDGER (c)'s A/B before committing it"

# pgo-check is the stale-profile trap as a check: Go matches a profile's
# hot call sites by line offset inside the caller, and names a generic
# instantiation by its record's fields, so an edit to arbitrate or Step,
# or a field added to or dropped from a wheel's record, can silently drop
# the inlining default.pgo buys (docs/LEDGER.md row (c)). This compiles internal/network under the committed profile
# with -gcflags=-m (offline, a few seconds) and fails when a call site
# listed in cmd/noctool/pgo-check.awk is no longer inlined; the cure is
# `make pgo` (CI's bench job runs it).
pgo-check:
	@go build -pgo=cmd/noctool/default.pgo -gcflags=-m ./internal/network 2>&1 | \
		awk -f cmd/noctool/pgo-check.awk internal/network/arbiter.go internal/network/network.go internal/network/events.go -
