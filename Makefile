# Convenience targets for the quake reproduction.

GO ?= go
BENCH_DATE := $(shell date +%Y-%m-%d)

.PHONY: all build vet fma-check test race lines bench bench-json bench-smoke e2e e2e-pairs fuzz-smoke soak-smoke serve-smoke serve-chaos cover ci repro results-check examples clean

# Benchmarks must run at the host's full width: a throttled GOMAXPROCS
# makes every parallel benchmark meaningless (the PE goroutines
# serialize), and the snapshot would record a number describing nothing.
# Override with `make bench-json BENCH_PROCS=4` to study a fixed width.
BENCH_PROCS ?= $(shell nproc)

all: build vet test

build:
	$(GO) build ./...

# go vet plus the formatting gate: any file gofmt would rewrite fails it.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# No fused multiply-add in internal/solver, internal/sparse or
# par.(Operator).Apply on arm64, the target where Go fuses and amd64's
# goldens would stop holding (scripts/fma-check.sh; compiles only, runs
# on any host).
fma-check:
	sh scripts/fma-check.sh

test:
	$(GO) test ./...

# The race detector on every package `go list` finds, so a new or
# touched package is covered without editing a list. internal/regress
# runs under -short (its differential table on one random mesh instead
# of two): its concurrent paths are par's and recover's, which run in
# full. Measured uncached on the 2-core reference host: 8 m 57 s, against
# 5 m 07 s for the 11-package hand list this replaces (par 3 m 06 s,
# recover 2 m 38 s, regress 1 m 37 s are the long poles).
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '/internal/regress$$')
	$(GO) test -race -short ./internal/regress/

# Non-test, non-generated Go lines per package and in total — the ruler
# ROADMAP aim 2 asks every PR to report with. `make lines REV=HEAD~1`
# measures a revision instead of the working tree.
lines:
	@sh scripts/lines.sh $(REV)

# The gate CI runs: build + vet + the fused-multiply-add check + full
# tests (as a coverage run with a floor), plus the race detector on the
# concurrency-heavy packages, plus a one-iteration benchmark smoke run
# so the kernel entry points cannot silently rot, plus a few seconds of
# fuzzing on the parsers that face untrusted input, plus the
# elastic-recovery chaos soak, the quaked service smoke, the
# durable-job chaos drill, and the check that both table generators
# still reproduce results/.
ci: build vet fma-check cover race bench-smoke fuzz-smoke soak-smoke serve-smoke serve-chaos results-check

# Total statement coverage must not sink below the floor (measured
# 88.1% when the gate was introduced; the margin absorbs run-to-run
# noise from timing-dependent branches, not feature work shipped
# without tests).
COVER_FLOOR ?= 85.0

cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); printf "total coverage: %s%% (floor %s%%)\n", $$3, floor; \
		 if ($$3 + 0 < floor + 0) { print "FAIL: coverage below floor"; exit 1 } }'

# Regenerates every table/figure into results/ and records the raw
# benchmark log (the EXPERIMENTS.md pipeline), then distills it into a
# machine-readable BENCH_<date>.json for the perf trajectory
# (ns/op + B/op + allocs/op; the kernels section pairs bcsr / sym /
# sym_avx2, their two-goroutine local_* twins and cg_resident against the
# previous snapshot, the host section records what a second goroutine
# bought during the run; see cmd/benchjson).
bench: bench-json

bench-json:
	GOMAXPROCS=$(BENCH_PROCS) $(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
	$(GO) run ./cmd/benchjson -in bench_output.txt -out BENCH_$(BENCH_DATE).json
	@echo "wrote BENCH_$(BENCH_DATE).json"

# Executes the distributed-kernel benchmark, the local-operator kernel
# benchmark in its three forms, the host-scaling pairs, each setup-stage
# benchmark, each durable-path benchmark, the serial and resident CG
# solves, both integrators and the local-kernel T_f once (no timing
# fidelity): a fast gate that the parallel SMVP entry point, the resident
# kernel (full-storage baseline, pure Go, the form selected for the
# host), the seven cold-build stages (Setup: partition ×2, analyze,
# schedule, lumped_mass, assemble, newdist), the six terms of the durable
# path (the journal's lives in internal/serve), CG's shared vector sweeps
# and fem's shared explicit step still run, and that the fault-injection
# hooks stay allocation-free on their hot path.
bench-smoke:
	$(GO) test -run='^$$' -bench='ParallelSMVP|LocalKernels|HostScaling|FaultHookOverhead|Setup|Durable|DistCGSolve|DistributedApplication|SMVPShare|TfLocalSMVP' -benchtime=1x -benchmem . ./internal/serve/

# The end-to-end benchmark (bench/README.md, BENCHMARK.json): every
# workload once, untraced. One run says little on a shared host; a claim
# is made with pairs.
e2e:
	$(GO) run ./bench -workload all -trace 0

# N alternating pairs of BASE (a git revision, exported with git archive)
# against the working tree on workload W, recorded under results/e2e/ and
# ended with `bench -compare` and the per-metric pair table:
#   make e2e-pairs BASE=HEAD~1 N=10 W=warm_large [SEED=2]
# The script keeps the raw run sets (results/e2e/<rev>[+change].seed<n>.json)
# of BASE only, deleting every other revision's; the .pairs.tsv tables and
# the traced runs stay for good.
N ?= 10
SEED ?= 1
e2e-pairs:
	sh scripts/e2e-pairs.sh $(BASE) $(N) $(W) $(SEED)

# Short mutation runs of the fuzz targets: the parsers that accept
# untrusted input (the message-matrix schedule builder, the fault-plan
# grammar, the frame codec both on-disk formats share and the two payload
# decoders behind it) plus the
# aggregation-invariant fuzzer that hunts for schedules where the
# two-level fusion drops or reorders words. Go allows one -fuzz pattern
# per invocation, so each target gets its own run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFromMatrix -fuzztime=5s ./internal/comm/
	$(GO) test -run='^$$' -fuzz=FuzzAggregate -fuzztime=5s ./internal/comm/
	$(GO) test -run='^$$' -fuzz=FuzzParsePlan -fuzztime=5s ./internal/fault/
	$(GO) test -run='^$$' -fuzz=FuzzFrameOpen -fuzztime=5s ./internal/durable/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeCheckpoint -fuzztime=5s ./internal/recover/
	$(GO) test -run='^$$' -fuzz=FuzzSolveRequest -fuzztime=5s ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeJournal -fuzztime=5s ./internal/serve/

# The elastic-recovery chaos soak: an actual quakesim run that loses a
# PE mid-solve, shrinks to the survivors, revives the slot, regrows to
# full width, and finishes with straggler rebalancing armed — the
# kill→shrink→revive→grow round trip exercised end to end from the CLI,
# not just in unit tests. A second run flips an exponent bit in one
# exchanged partial sum, the corruption once served as a converged
# answer at ~500× tol: it must end with a certificate within 10·tol on
# the clean operator, or quakesim exits non-zero. The multi-fault
# in-process soak also runs (TestMultiFaultSoak: two kills + two
# revivals in one solve).
soak-smoke:
	$(GO) run ./cmd/quakesim -scenario sf10 -steps 20 -pes 8 -rebalance \
		-faults 'kill:pe=3,iter=12;revive:pe=3,iter=32' \
		-checkpoint soak-ck -every 5 -flight soak.flight.trace.json
	$(GO) run ./cmd/quakesim -scenario sf10 -pes 8 -faults 'corrupt:pe=1->0,iter=3,bit=62' \
		-flight soak.flight.trace.json
	rm -rf soak-ck soak.flight.trace.json
	$(GO) test -count=1 -run 'TestMultiFaultSoak|TestKillReviveRoundTrip' ./internal/recover/

# The quaked service smoke: start the warm-pool server, run one cold
# and one cached solve against it over HTTP, assert the
# serve.cache.{hits,misses} counters through /metrics.json, and shut
# down gracefully — the whole serving stack exercised as a binary, not
# just in unit tests (see docs/SERVICE.md).
serve-smoke:
	$(GO) run ./cmd/quaked -addr 127.0.0.1:0 -smoke

# The durable-job chaos drill: a solve with a kill fault and migrate
# recovery is submitted over HTTP with an idempotency key, the whole
# engine is torn down mid-solve after at least one migration and one
# durable checkpoint, and a second engine on the same journal replays
# the job and finishes it from the checkpoint — crash-safety of the
# jobs WAL exercised as a binary (see docs/RELIABILITY.md).
serve-chaos:
	$(GO) run ./cmd/quaked -chaos -smoke-pes 4

# One-shot figure regeneration without the benchmark harness: the
# committed sweep (sf10, sf5, sf2) into results/.
repro:
	$(GO) run ./cmd/quakerepro

# Both table generators — the root benchmarks at -benchtime=1x and
# quakerepro — rerun against a temporary copy of the tree, every table
# either writes diffed against results/*.txt (the two timing-bearing
# tables excluded by name). Writes nothing here; ≈ 30 s.
results-check:
	sh scripts/results-check.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/waveprop
	$(GO) run ./examples/netdesign
	$(GO) run ./examples/partitionstudy
	$(GO) run ./examples/implicit

# Removes only what the targets above generate untracked: results/ and
# the BENCH_*.json snapshots are committed.
clean:
	rm -rf bench_output.txt test_output.txt coverage.out bench/out soak-ck *.trace.json
