# Standard developer entry points. Everything is stdlib-only Go; no
# tools beyond the toolchain are required.

.PHONY: build test check lint lintfix-audit escapecheck escapebaseline slowcheck loadtest scenarios perfbenchcheck bench bench-baseline bench-all

build:
	go build ./...

# Tier-1: the full suite (daemon wall-clock e2e skips under -short).
test:
	go build ./... && go test ./...

# Pre-merge gate, cheapest checks first: the project analyzers (lint)
# and the escape-analysis gate fail in seconds with file:line
# diagnostics, so they run before vet, the race suites, the
# differential-oracle sweep and churn soak (slowcheck), the scenario
# smoke (scenarios), the end-to-end benchmark's own build and tests
# (perfbenchcheck) and the Step perf regression gate (bench).
check: lint escapecheck slowcheck scenarios loadtest perfbenchcheck bench
	go vet -unsafeptr ./...
	go test -race ./internal/matrix/... ./internal/matching/... ./internal/obs/... ./internal/online/... ./internal/scenario/... ./internal/switchsim/... ./internal/daemon/... ./internal/shard/... ./internal/lp/...

# Project-specific static analysis (internal/lint run by
# cmd/coflowvet): allocation-freedom of //coflow:allocfree functions,
# nil-receiver guards and span hygiene in the obs layer, "guarded by"
# lock discipline, silently discarded errors, pooled-loan escapes and
# staleness, post-publication mutation, closures escaping
# single-writer loops, and module-wide lock ordering. See DESIGN.md
# "Static analysis" and "Static analysis v2".
lint:
	go run ./cmd/coflowvet

# Audit trail of every //lint:ignore suppression in the module, one
# line per directive with its reason. Review this list when a
# suppression's justification goes stale; reasonless directives are
# themselves lint errors, so everything printed here carries a reason.
lintfix-audit:
	go run ./cmd/coflowvet -ignores

# Escape-analysis gate for //coflow:allocfree functions, compare-only
# against the committed baseline: a NEW "escapes to heap" inside an
# annotated function fails; pre-existing ones are grandfathered in
# bench/escapes-baseline.txt.
escapecheck:
	go run ./cmd/escapecheck

# Rotate the escape baseline after a deliberate change; commit the
# resulting bench/escapes-baseline.txt.
escapebaseline:
	go run ./cmd/escapecheck -write

# Differential oracle at full depth: the slowcheck-tagged sweeps
# (larger fabrics, every policy, state diffs every slot) plus a
# bounded run of the step-vs-reference fuzz target. Any failure dumps
# a minimized reproducer; see DESIGN.md "Invariant checking".
slowcheck:
	go test -tags=slowcheck ./internal/check/
	go test -race -tags=slowcheck -run=TestChurnSoak ./internal/shard/
	go test -run='^$$' -fuzz=FuzzStepVsReference -fuzztime=30s ./internal/check/
	go test -run='^$$' -fuzz=FuzzSparseVsDense -fuzztime=30s ./internal/lp/

# Bounded end-to-end load smoke: coflowload drives an in-process
# 4-fabric coflowd over loopback HTTP for a few seconds and FAILS on
# any 5xx or on zero ingest throughput. The human-readable report
# (p50/p99 ingest latency, per-fabric tick latency) prints either way.
loadtest:
	go run ./cmd/coflowload -selftest -shards 4 -duration 3s -c 8 -bulk 16

# Scenario smoke: replay every built-in scenario through the
# in-process driver (monitor validating every slot, planner
# cross-checked) and one churn scenario end-to-end over loopback HTTP
# against an in-process sharded coflowd. Fails on any monitor
# violation, lost demand, 5xx, or unresolved coflow.
scenarios:
	go test -run='TestBuiltinsReplayClean|TestChurnShadowReplay' -count=1 ./internal/scenario/
	go run ./cmd/coflowload -selftest -shards 2 -scenario churn-cancel -tick 2ms

# perfbench is its own Go module (replace coflow => ../), so the root
# `go build ./... && go test ./...` never compiles it: a rename of a
# daemon/shard/lpmodel name it imports would otherwise surface only
# when the benchmark runs. Vet and test it here (~30 s).
perfbenchcheck:
	cd perfbench && go vet ./... && go test ./...

# Tracked perf benchmarks, compare-only: runs the per-slot pipeline
# (Step), BvN decomposition, and LP solve benches 3×, joins the per-benchmark
# minimum (noise only adds time) against the rolling baseline in
# bench/baseline.txt, emits $(BENCHOUT), and FAILS if any Step or
# Decompose benchmark is more than MAXREGRESS percent slower in ns/op
# (or allocates where the baseline did not). The default budget of 20%
# absorbs the run-to-run drift of shared/virtualized machines
# (observed up to ~18% on identical binaries); on an idle dedicated
# box tighten it: `make bench MAXREGRESS=5`. The run itself is never
# committed; rotate the baseline explicitly with bench-baseline after
# an intentional perf change. (bench/pr1-baseline.txt is the frozen
# pre-optimization record the PR 2 speedup numbers in EXPERIMENTS.md
# are measured against.) The JSON report lands in $(BENCHOUT).
MAXREGRESS ?= 20
BENCHOUT ?= BENCH_PR9.json
bench:
	go test -bench='^(BenchmarkStep|BenchmarkDecompose|BenchmarkLPSolve)' -benchmem -benchtime=1s -count=3 -run='^$$' \
		./internal/online/ ./internal/bvn/ ./internal/lpmodel/ > bench/latest.txt
	go run ./cmd/benchjson -old bench/baseline.txt -gate Step,Decompose,LPSolve -maxregress $(MAXREGRESS) \
		< bench/latest.txt > $(BENCHOUT)

# Rotate the rolling baseline the bench gate compares against. Run on
# an idle machine and commit the new bench/baseline.txt.
bench-baseline:
	go test -bench='^(BenchmarkStep|BenchmarkDecompose|BenchmarkLPSolve)' -benchmem -benchtime=1s -count=3 -run='^$$' \
		./internal/online/ ./internal/bvn/ ./internal/lpmodel/ | tee bench/baseline.txt

# Every benchmark in the repository (experiments included; slow).
bench-all:
	go test -bench=. -benchmem -run=^$$ ./...
