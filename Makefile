# Tier-1 verification and benchmark evidence for the serpentine
# simulator. `make verify` is the gate every change must pass;
# `make bench` regenerates the committed benchmark evidence.

GO      ?= go
BENCH_OUT ?= BENCH_PR1.json
BENCH_TXT ?= bench.txt
BENCH6_OUT ?= BENCH_PR6.json
BENCH6_BASELINE ?= BENCH_PR6_BASELINE.txt
BENCH13_OUT ?= BENCH_PR13.json
BENCH13_BASELINE ?= BENCH_PR13_BASELINE.txt
BENCH14_OUT ?= BENCH_PR14.json
BENCH14_BASELINE ?= BENCH_PR14_BASELINE.txt
BENCH17_OUT ?= BENCH_PR17.json
BENCH17_BASELINE ?= BENCH_PR17_BASELINE.txt
BENCH21_OUT ?= BENCH_PR21.json
BENCH21_BASELINE ?= BENCH_PR21_BASELINE.txt
BENCH22_OUT ?= BENCH_PR22.json
BENCH22_BASELINE ?= BENCH_PR22_BASELINE.txt
BENCH26_OUT ?= BENCH_PR26.json
BENCH26_BASELINE ?= BENCH_PR26_BASELINE.txt

# End-to-end benchmarks for the dispatch-loop perf pass: a full
# library sweep cell, the online server's steady-state loop, and the
# bare event-heap cycle. 200 fixed iterations amortize sync.Pool
# warmup so the numbers reflect steady state, not cold pools.
E2E_BENCH := BenchmarkLibrarySweepCell$$|BenchmarkServerSteadyState|BenchmarkEventLoopDispatch

# The layer ladder above the library: a fleet sweep cell (1-shard
# pass-through vs 8-shard affinity), a staging-tier sweep cell (size 0
# vs 32 MB), and wide-event emission (nil vs armed ring, with and
# without a health tracker). Each op is a whole run of a few thousand
# requests, so a fixed 20 iterations per sample suffices.
LADDER_BENCH := BenchmarkFleetSweepCell|BenchmarkTierSweepCell|BenchmarkEventEmission

# Pinned analysis-tool versions: `go run pkg@version` fetches and runs
# without touching go.mod, so the simulator itself stays dependency-free.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK := golang.org/x/vuln/cmd/govulncheck@v1.1.4

FUZZTIME ?= 30s

.PHONY: verify test vet fmt race bench bench-json bench-pr6 bench-pr13 bench-pr14 bench-pr17 bench-pr21 bench-pr22 bench-pr26 bench-snapshot profile fuzz-smoke lint vulncheck cover results slo clean

# Tier-1 verify: build, vet, full test suite, and the race detector
# over the sweep runner and the parallel simulator plus the packages
# it drives concurrently (the drive emulator, the scheduler suite, the online server and its
# metrics registry, the multi-drive tape library, and the sharded
# fleet). The benchmark harness is its own module, which `./...` at
# the root does not reach; vetting it (rather than building it, which
# would drop a binary into the tree) catches API deletions that break
# it.
verify: vet
	$(GO) build ./...
	cd perfbench && $(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/grid/... ./internal/sim/... ./internal/drive/... ./internal/core/... ./internal/server/... ./internal/obs/... ./internal/tertiary/... ./internal/hsm/... ./internal/fleet/...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean; prints the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./internal/grid/... ./internal/sim/... ./internal/drive/... ./internal/core/... ./internal/server/... ./internal/obs/... ./internal/tertiary/... ./internal/hsm/... ./internal/fleet/...

# Run the performance-critical benchmarks with allocation reporting:
# the scheduler suite, the locate-model fast path, and the root-level
# figure benchmarks that exercise the whole pipeline.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkScheduler' -benchmem ./internal/core | tee $(BENCH_TXT)
	$(GO) test -run '^$$' -bench 'BenchmarkCostMatrix' -benchmem ./internal/locate | tee -a $(BENCH_TXT)
	$(GO) test -run '^$$' -bench 'BenchmarkFig4RandomStart|BenchmarkLocateTime' -benchmem . | tee -a $(BENCH_TXT)

# Convert the captured text into committed JSON evidence.
bench-json: bench
	$(GO) run ./cmd/benchjson < $(BENCH_TXT) > $(BENCH_OUT)
	rm -f $(BENCH_TXT)

# Regenerate the committed end-to-end benchmark evidence: the PR-1
# scheduler suite (trajectory continuity) plus the end-to-end benches,
# with the pre-optimization capture embedded under "baseline" so
# before/after lives in one document.
bench-pr6:
	$(GO) test -run '^$$' -bench 'BenchmarkScheduler' -benchmem ./internal/core | tee $(BENCH_TXT)
	$(GO) test -run '^$$' -bench '$(E2E_BENCH)' -benchtime 200x -benchmem ./internal/tertiary ./internal/server | tee -a $(BENCH_TXT)
	$(GO) run ./cmd/benchjson -baseline $(BENCH6_BASELINE) < $(BENCH_TXT) > $(BENCH6_OUT)
	rm -f $(BENCH_TXT)

# Regenerate the committed evidence for the lazy, incremental LOSS
# engine: the scheduler suite (LOSS at n=128, 1024 and 1536) plus the
# end-to-end benches, with the capture from the eager engine embedded
# under "baseline". GOMAXPROCS=1 matches the baseline capture and the
# CI gate, so benchmark names carry no -N suffix.
bench-pr13:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkScheduler$$' -benchmem ./internal/core | tee $(BENCH_TXT)
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench '$(E2E_BENCH)' -benchtime 200x -benchmem ./internal/tertiary ./internal/server | tee -a $(BENCH_TXT)
	$(GO) run ./cmd/benchjson -baseline $(BENCH13_BASELINE) < $(BENCH_TXT) > $(BENCH13_OUT)
	rm -f $(BENCH_TXT)

# Regenerate the committed evidence for the bounded Held–Karp OPT:
# the scheduler suite (OPT at n=3, 6, 8 and 10) plus the end-to-end
# benches, with the capture from the exhaustive dynamic program
# embedded under "baseline". GOMAXPROCS=1 as for bench-pr13.
bench-pr14:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkScheduler$$' -benchmem ./internal/core | tee $(BENCH_TXT)
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench '$(E2E_BENCH)' -benchtime 200x -benchmem ./internal/tertiary ./internal/server | tee -a $(BENCH_TXT)
	$(GO) run ./cmd/benchjson -baseline $(BENCH14_BASELINE) < $(BENCH_TXT) > $(BENCH14_OUT)
	rm -f $(BENCH_TXT)

# Regenerate the committed evidence for the flat small-batch LOSS
# engine: the scheduler suite (LOSS at n=16 and 40), the end-to-end
# benches and the fleet, tier and emission ladder, plus Auto over the
# batch mix of one library run, with the capture from the parent
# revision embedded under "baseline". This is the maintained capture
# recipe; BENCH_PR16.json (the flat fleet path) is a frozen capture
# that the CI gate keeps as a floor. Every benchmark runs -count 5, as
# in CI, so the gate's best-of reference is a best of five on both
# sides. GOMAXPROCS=1 as for bench-pr13.
bench-pr17:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkScheduler$$' -count 5 -benchmem ./internal/core | tee $(BENCH_TXT)
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench '$(E2E_BENCH)' -benchtime 200x -count 5 -benchmem ./internal/tertiary ./internal/server | tee -a $(BENCH_TXT)
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkAutoLibraryMix' -count 5 -benchmem ./internal/tertiary | tee -a $(BENCH_TXT)
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench '$(LADDER_BENCH)' -benchtime 20x -count 5 -benchmem ./internal/fleet ./internal/hsm | tee -a $(BENCH_TXT)
	$(GO) run ./cmd/benchjson -baseline $(BENCH17_BASELINE) < $(BENCH_TXT) > $(BENCH17_OUT)
	rm -f $(BENCH_TXT)

# Regenerate the committed evidence for the per-section tape layout:
# the locate layer's two microbenchmarks (one LocateTime, and the
# batched fill of a 1025 x 1025 cost matrix), with the capture from
# the parent revision, which read per-segment position tables,
# embedded under "baseline". GOMAXPROCS=1 and -count 5 as for
# bench-pr17.
bench-pr21:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkCostMatrix$$' -count 5 -benchmem ./internal/locate | tee $(BENCH_TXT)
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkLocateTime$$' -count 5 -benchmem . | tee -a $(BENCH_TXT)
	$(GO) run ./cmd/benchjson -baseline $(BENCH21_BASELINE) < $(BENCH_TXT) > $(BENCH21_OUT)
	rm -f $(BENCH_TXT)

# Regenerate the committed evidence for the quiescent-shard skip and
# the dense per-cartridge queue: a library sweep cell (the event loop
# alone) and the fleet, tier and emission ladder above it, with the
# capture from the parent revision, which stepped every shard on every
# arrival and kept the queue in maps, embedded under "baseline".
# GOMAXPROCS=1 and -count 5 as for bench-pr17.
bench-pr22:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkLibrarySweepCell$$' -benchtime 200x -count 5 -benchmem ./internal/tertiary | tee $(BENCH_TXT)
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench '$(LADDER_BENCH)' -benchtime 20x -count 5 -benchmem ./internal/fleet ./internal/hsm | tee -a $(BENCH_TXT)
	$(GO) run ./cmd/benchjson -baseline $(BENCH22_BASELINE) < $(BENCH_TXT) > $(BENCH22_OUT)
	rm -f $(BENCH_TXT)

# Regenerate the committed evidence for the one terminal record per
# shard run: a library sweep cell and the fleet, tier and emission
# ladder, with the capture from the parent revision, which recorded
# every request as a completion and a ring event and sorted the fleet's
# events globally, embedded under "baseline". GOMAXPROCS=1 and -count 5
# as for bench-pr17.
bench-pr26:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkLibrarySweepCell$$' -benchtime 200x -count 5 -benchmem ./internal/tertiary | tee $(BENCH_TXT)
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench '$(LADDER_BENCH)' -benchtime 20x -count 5 -benchmem ./internal/fleet ./internal/hsm | tee -a $(BENCH_TXT)
	$(GO) run ./cmd/benchjson -baseline $(BENCH26_BASELINE) < $(BENCH_TXT) > $(BENCH26_OUT)
	rm -f $(BENCH_TXT)

# Run the benchmark for one second per workload and check its 18
# virtual-time outputs (six per workload) exactly against the committed
# snapshot, scripts/benchsnap.txt. Those outputs do not depend on host
# speed, so any drift is a change in what the simulator computes.
bench-snapshot:
	sh scripts/benchsnap.sh

# CPU and heap profiles of a representative library sweep cell, for
# `go tool pprof results/pprof/cpu.out` (see EXPERIMENTS.md §"Profiling
# the event loop"). Artifacts are gitignored.
profile:
	mkdir -p results/pprof
	$(GO) test -run '^$$' -bench 'BenchmarkLibrarySweepCell$$' -benchtime 300x \
		-cpuprofile results/pprof/cpu.out -memprofile results/pprof/heap.out \
		-o results/pprof/tertiary.test ./internal/tertiary

# Short fuzzing passes over the flat and lazy LOSS engines (against
# their eager reference), the bounded OPT search (against the exhaustive dynamic
# program), the key-point table reader and the view and locate model
# built from what it accepts (against a linear boundary search and the
# reference decomposition), the executor's replan path, the server's admission queue, the library batcher, the bounded span store, the
# wide-event ring, the SLO sliding windows, the event-log replay
# (parse, sort, SLO scoring and write/read round trip of arbitrary
# bytes), the library Runner under arbitrary extra
# AdvanceTo calls (against Run), the staging cache's eviction policies,
# the fleet routing tier, and the fleet's event fold and health fill
# (against the copy-and-sort fold and the heap-ordered health feed) —
# the state machines arbitrary inputs can reach. CI runs this on every PR;
# locally, raise FUZZTIME to dig.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLOSSLazyEquivalence$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzOPTBoundedEquivalence$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzKeyPointView$$' -fuzztime $(FUZZTIME) ./internal/locate/
	$(GO) test -run '^$$' -fuzz '^FuzzExecutorReplan$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzAdmissionQueue$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzLibraryBatcher$$' -fuzztime $(FUZZTIME) ./internal/tertiary/
	$(GO) test -run '^$$' -fuzz '^FuzzLibraryRescue$$' -fuzztime $(FUZZTIME) ./internal/tertiary/
	$(GO) test -run '^$$' -fuzz '^FuzzEventHeap$$' -fuzztime $(FUZZTIME) ./internal/tertiary/
	$(GO) test -run '^$$' -fuzz '^FuzzRunnerAdvance$$' -fuzztime $(FUZZTIME) ./internal/tertiary/
	$(GO) test -run '^$$' -fuzz '^FuzzSpanStore$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzWideEventRing$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzSLOWindow$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzEventLogReplay$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEviction$$' -fuzztime $(FUZZTIME) ./internal/hsm/
	$(GO) test -run '^$$' -fuzz '^FuzzFleetRouting$$' -fuzztime $(FUZZTIME) ./internal/fleet/
	$(GO) test -run '^$$' -fuzz '^FuzzFleetFoldEquivalence$$' -fuzztime $(FUZZTIME) ./internal/fleet/
	$(GO) test -run '^$$' -fuzz '^FuzzAxisList$$' -fuzztime $(FUZZTIME) ./internal/grid/

# Static analysis beyond vet, with pinned tool versions. Needs network
# on first run to fetch the tools (CI caches them).
lint:
	$(GO) run $(STATICCHECK) ./...
	$(GO) run $(GOVULNCHECK) ./...

# The vulnerability scan alone, for the weekly scheduled workflow:
# advisories published after a commit landed are the case the per-PR
# lint run cannot catch.
vulncheck:
	$(GO) run $(GOVULNCHECK) ./...

# Coverage over the internal packages; CI uploads the profile as a PR
# artifact and posts the aggregate line in the job summary.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./internal/...
	$(GO) tool cover -func=coverage.out | tail -1

# Regenerate every committed result table. The generators are
# deterministic at any worker count, so `git diff results/` after this
# target must be empty — CI enforces exactly that.
results:
	$(GO) run ./cmd/chaos > results/chaos.txt
	$(GO) run ./cmd/serve > results/online.txt
	$(GO) run ./cmd/library > results/library.txt
	$(GO) run ./cmd/outage > results/availability.txt
	$(GO) run ./cmd/fleet > results/fleet.txt
	$(GO) run ./cmd/cache > results/cache.txt
	$(GO) run ./cmd/trace
	$(MAKE) slo

# Regenerate the committed wide-event sample and the SLO report built
# from it. Both are byte-deterministic at any -workers count; the
# analyzer reads the committed JSONL so the report is reproducible from
# evidence alone.
slo:
	$(GO) run ./cmd/events -out results/events.jsonl
	$(GO) run ./cmd/slo -events results/events.jsonl > results/slo.txt

clean:
	rm -f $(BENCH_TXT)
