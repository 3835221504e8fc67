# Verification entry points. `make check` is the full gate: formatting,
# lint (go vet plus the project's own mdlint analyzers — see DESIGN.md
# §8), build, plain tests, the race detector (the
# distributed/faultinject packages are goroutine-heavy, so tier-1 runs
# them under -race too), and the bench/ module's own vet and tests.
# `make bench` runs the paper's experiment benchmarks (E1–E14) with
# allocation counts and the executor guards (columnar vs the scalar
# Algorithm 3.1 reference, stats overhead, shared scans, incremental
# deltas); it is a separate target because the full sweep takes minutes.
# `make fuzz-smoke` gives each native fuzz target a short budget — the
# CI slice of the continuous `go test -fuzz` runs.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check check-nolint fmt lint vet build test race race-metrics race-shared race-incremental bench-check bench bench-guard fuzz-smoke serve-smoke

check: fmt lint build test race race-metrics race-shared race-incremental bench-check

# The CI check job runs this variant: lint is its own CI job (with the
# build cache persisted across runs, since mdlint loads the module
# against export data), so the main gate does not pay for it twice.
check-nolint: fmt build test race race-metrics race-shared race-incremental bench-check

# gofmt emits nothing when the tree is clean; any path listed fails the
# gate.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# mdlint loads the module against build-cache export data, so it needs a
# build to exist; `go vet` (first) guarantees that as a side effect.
# -timing prints the per-pass wall-time table so a slow analyzer is
# visible the moment it lands.
lint: vet
	$(GO) run ./cmd/mdlint -timing ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The observability counters are written from worker goroutines (parallel
# partitions, concurrent scatter sites), so the metrics tests are rerun
# explicitly under the race detector with caching disabled — a cached
# `race` pass must not mask a freshly introduced data race here.
race-metrics:
	$(GO) test -race -count=1 -run 'TestStats|TestPhaseStats|TestPartitionedParallelCompose|TestEmptyRelationsParallel' ./internal/core
	$(GO) test -race -count=1 -run 'TestReport|TestScatterPhasesCallerStats' ./internal/distributed

# The shared-scan torture suite: concurrent queries merged into one detail
# scan while one caller cancels and another panics mid-scan — the survivors
# must complete with byte-identical results. Rerun under the race detector
# with caching disabled so a cached `race` pass cannot mask a fresh race in
# the coordinator or the merged driver's eviction path.
race-shared:
	$(GO) test -race -count=1 -run 'TestMergedScan|TestSharedExecutor|TestEvalBundles' ./internal/core

# The incremental-maintenance suite under the race detector: concurrent
# appenders racing snapshotters over one live materialization (with fault
# injection), plus the differential and windowed tests, rerun with caching
# disabled so a cached `race` pass cannot mask a fresh race in the
# arena-swap or poison paths. The view layer that builds on Incremental is
# covered by ./internal/server in `race`.
race-incremental:
	$(GO) test -race -count=1 -run 'TestIncremental' ./internal/core

# The end-to-end benchmark harness (bench/) is its own Go module, so
# `go build ./...` and `go test ./...` never compile it. It builds
# against internal/core, sqlext, server and friends; vet and test it
# here so a refactor cannot break the benchmark unseen.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# All E1–E14 experiment benchmarks with -benchmem, then the guards. The
# guards (also runnable alone via bench-guard) assert that (a) on the E12
# workload the columnar executor over the flat hash index is no slower
# than the tuple-at-a-time map-index baseline, allocates no more, and
# stays on typed kernels with zero boxed-fallback elements, (b) enabling
# Options.Stats costs no more than 5% over a Stats==nil run, (c)
# concurrent queries over one relation merge into one shared scan, and
# (d) folding a 1% delta into a live core.Incremental stays 10x under
# re-evaluating the accumulated relation — the regression tripwires for
# the executor hot path, its instrumentation, shared scans, and
# incremental maintenance.
bench: bench-guard
	$(GO) test -bench 'BenchmarkE' -benchmem -benchtime 5x -run '^$$' .
	$(GO) test ./internal/distributed -bench ScatterFragments -benchtime 20x -run '^$$'

bench-guard:
	MDJOIN_BENCH_GUARD=1 $(GO) test -run 'TestE12BatchGuard|TestStatsOverheadGuard|TestSharedScanGuard|TestIncrementalDeltaGuard' -count=1 -v .
	MDJOIN_BENCH_GUARD=1 $(GO) test ./internal/server -run TestServerOverheadGuard -count=1 -v

# End-to-end smoke of the mdserve lifecycle with the real binaries:
# build, serve generated Sales data, query (plain and EXPLAIN ANALYZE)
# through `mdq -server`, then SIGTERM with queries in flight and assert
# a clean drain. The in-process torture suite lives in internal/server;
# this target covers what httptest cannot — sockets, signals, processes.
serve-smoke:
	./scripts/serve_smoke.sh

# Short coverage-guided runs of each native fuzz target (the same
# harnesses run indefinitely with `go test -fuzz ...`). One target per
# invocation: the fuzz engine allows a single -fuzz pattern per package
# run.
fuzz-smoke:
	$(GO) test ./internal/analysis -run '^$$' -fuzz FuzzCFGBuild -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzIncrementalVsBatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/expr -run '^$$' -fuzz FuzzEvalChunkVsScalar -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlext -run '^$$' -fuzz FuzzParseTranslate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/table -run '^$$' -fuzz FuzzReadCSV -fuzztime $(FUZZTIME)
