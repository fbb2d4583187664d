GO ?= go

.PHONY: all build test vet race race-stress fmt-check fuzz-smoke bench-smoke bench-serve bench-placement bench-shard bench-generate bench-store bench-smoke-all bench bench-run bench-check bench-baseline doc-check metric-check fleetbench-check verify

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Ten race-enabled runs of the concurrency tests: the job registry
# (both job kinds), generation submit and Close, the router memo and
# its batcher. One -race pass sees one interleaving; repeated runs
# shake out the rarer ones.
race-stress:
	$(GO) test -race -count=10 -run 'Job|Ensemble(Submit|Close)|Memo|Batcher' ./internal/serve/ ./internal/shard/

# Fail when any Go file is not gofmt-formatted; prints the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Benchmark selections, one per package: the -bench pattern,
# -benchtime and package, each written once. The bench-* smoke targets
# run one selection once; bench-run runs them all, for bench-check and
# bench-baseline. -cpu is pinned because several allocation counts
# depend on GOMAXPROCS, and CI hosts differ in CPU count; -benchmem
# because the gate checks allocs/op.
BENCH = $(GO) test -run '^$$' -benchmem -cpu 2

# The paper figures on the engine path against the sequential
# reference, and the deduplicated (compressed) weighted sweeps.
BENCH_ROOT = -bench '^Benchmark(Figure|Compressed)' -benchtime 20x .

# The analysis server over a 1000-realization synthetic ensemble: the
# HTTP serving path (handler stack, compiled-view cache, attack
# tables), the observability cost (tracing on vs off, a router-injected
# traceparent, the Prometheus exposition render), and the write path
# end to end (upload → generate → sweep).
BENCH_SERVE = -bench '^Benchmark(Serve|Traced|TracingOff|MetricsRender|Obs|UploadToSweep)' -benchtime 100x ./internal/serve/

# The attack-table kernel on the pair search over the real Oahu
# ensemble, plus the k-site greedy (1024-candidate synthetic universe)
# and branch-and-bound searches.
BENCH_PLACEMENT = -bench '^Benchmark(Pairs|KSite)' -benchtime 20x ./internal/placement/

# The consistent-hash router over two real re-executed worker
# processes: memo hits, routed misses and direct worker access, plus
# one federated /v1/metrics?fleet=1 merge over two backends. Cluster
# startup dominates the runtime.
BENCH_SHARD = -bench '^Benchmark(Sharded|ObsFleetMerge)' -benchtime 100x ./internal/shard/

# Ensemble generation: the single-scan batch pipeline vs the retained
# reference path, end to end (50-realization Oahu ensemble) and per
# realization.
BENCH_GENERATE = -bench '^BenchmarkGenerate(Batch|Reference|Solver)' -benchtime 3x ./internal/hazard/

# The content-addressed store: crash-safe Put/Get/warm restart over
# 64 KiB blobs.
BENCH_STORE = -bench '^BenchmarkStore(Put|Get|WarmStart)' -benchtime 100x ./internal/store/

bench-smoke:
	$(BENCH) $(BENCH_ROOT)

bench-serve:
	$(BENCH) $(BENCH_SERVE)

bench-placement:
	$(BENCH) $(BENCH_PLACEMENT)

bench-shard:
	$(BENCH) $(BENCH_SHARD)

bench-generate:
	$(BENCH) $(BENCH_GENERATE)

bench-store:
	$(BENCH) $(BENCH_STORE)

# Every benchmark smoke in one target, so the verify gate stays one
# line as selections accumulate.
bench-smoke-all: bench-smoke bench-serve bench-placement bench-shard bench-generate bench-store

# Short fuzz runs over every fuzz target: the hazard ensemble codecs
# (JSON and CSV readers), the compressed-matrix wire codec, the
# topology and generation-parameter decoders, the read-query parse
# the router and the worker share (sweep, figure and placement), and
# the traceparent parser. 30s per target keeps the job a few minutes while still
# churning through millions of hostile inputs; `go test -fuzz` accepts
# one target per invocation, hence one line each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzReadJSON' -fuzztime 30s ./internal/hazard/
	$(GO) test -run '^$$' -fuzz 'FuzzReadCSV' -fuzztime 30s ./internal/hazard/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeCompressedMatrix' -fuzztime 30s ./internal/engine/
	$(GO) test -run '^$$' -fuzz 'FuzzTopologyUpload' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzEnsembleParams' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzReadQuery' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzTraceParent' -fuzztime 30s ./internal/obs/

# Full benchmark sweep with allocation counts (slow: regenerates the
# 1000-realization ensemble).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
	$(GO) test -run '^$$' -bench . -benchmem ./internal/engine/ ./internal/attack/

# Every selection, BENCH_COUNT runs each, into one output file: the
# input of the regression gate and of the baseline it compares against.
# The gate takes medians over five runs; the baseline records the
# highest allocs/op over twenty, because the benchmarks that run
# goroutines (worker pools, HTTP clients, generation jobs) allocate a
# few objects more or fewer from run to run.
BENCH_COUNT = 5
bench-run:
	$(BENCH) -count $(BENCH_COUNT) $(BENCH_ROOT) > bench-check.out
	$(BENCH) -count $(BENCH_COUNT) $(BENCH_SERVE) >> bench-check.out
	$(BENCH) -count $(BENCH_COUNT) $(BENCH_PLACEMENT) >> bench-check.out
	$(BENCH) -count $(BENCH_COUNT) $(BENCH_SHARD) >> bench-check.out
	$(BENCH) -count $(BENCH_COUNT) $(BENCH_GENERATE) >> bench-check.out
	$(BENCH) -count $(BENCH_COUNT) $(BENCH_STORE) >> bench-check.out

# Benchmark regression gate (see tools/benchcheck): every benchmark
# bench-run runs must match an entry of tools/benchcheck/baseline.json,
# stay within 3x of its median ns/op, and allocate no more than its
# recorded allocs/op.
bench-check: bench-run
	$(GO) run ./tools/benchcheck -input bench-check.out

# Rewrite tools/benchcheck/baseline.json from a fresh twenty-run
# bench-run, after an intended change to what a benchmark measures or
# allocates.
bench-baseline: BENCH_COUNT = 20
bench-baseline: bench-run
	$(GO) run ./tools/benchcheck -write -input bench-check.out

# Documentation lint: every package must carry a package comment, and
# docs/API.md must document exactly the routes internal/serve and
# internal/shard register (see tools/doccheck).
doc-check:
	$(GO) run ./tools/doccheck -api docs/API.md -routes internal/serve,internal/shard ./...

# Metric-naming lint: every literal obs instrument registration must be
# dotted lowercase, _total-free, and kind-consistent (see
# tools/metriccheck).
metric-check:
	$(GO) run ./tools/metriccheck ./...

# The fleet benchmark harness is a nested module (fleetbench/go.mod),
# so the root `go build ./...` never compiles it: vet and test it on its
# own so a change to the exported API it drives cannot break it unseen.
fleetbench-check:
	cd fleetbench && $(GO) vet ./... && $(GO) test ./...

# The documented verification gate: vet, build, race-enabled tests
# (plus the repeated concurrency runs), documentation and
# metric-naming lints, the fleet-harness check, and the benchmark
# smoke runs.
verify: vet build race race-stress doc-check metric-check fleetbench-check bench-smoke-all
