GO ?= go

.PHONY: build test vet race lint bench smoke fleet-smoke profile-smoke exp-smoke ddp-smoke alloc-guard perfbench-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race run exercises the worker-pool paths (the serial-vs-parallel
# equivalence test runs every tiny model at workers > 1) and is part of the
# tier-1 verification for any change touching internal/parallel or a layer
# dispatch.
race:
	$(GO) test -race ./...

# bnff-lint is the repo's own static-analysis suite (internal/analysis). It
# enforces the determinism, pool-dispatch, and numerics contracts the README
# "Static analysis" section documents: no ad-hoc goroutines or channels
# outside the allowlisted concurrency domains internal/parallel,
# internal/serve, internal/obs, and internal/ddp (poolonly), no
# order-sensitive sinks in map
# ranges (maporder), no package-level mutable state in the hot-path packages
# (noglobals), det-reduce markers on every cross-partition combine loop
# (detreduce), all randomness through the seeded tensor RNG and all library
# timing through injected clocks (seededrand), arena buffers released or
# detached on every path (arenaown), tracer spans ended on every path
# (spanpair), and no heap-allocating constructs inside "hot-path:" functions
# or pool-dispatched closures (hotalloc). Suppress individual findings with
# "//lint:ignore <analyzer> <reason>" on or directly above the line; a
# suppression whose finding disappears is itself flagged (staleignore).
lint:
	$(GO) run ./cmd/bnff-lint ./...

# Package-level benchmarks live next to their packages (layers, kernels,
# parallel, ...), so bench sweeps the whole module, not just the root.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# End-to-end check of cmd/bnff-serve: build, self-train, serve, exercise
# /predict /healthz /stats, and verify graceful SIGTERM shutdown.
smoke:
	./scripts/serve-smoke.sh

# End-to-end check of the serving fleet: bnff-proxy over two bnff-serve
# backends on the real wire — rolling checkpoint reload under load (zero
# non-200, answers bit-match a fresh single-process folded reference),
# SIGKILL one backend mid-traffic (zero accepted-request loss, control-plane
# ejection), clean SIGTERM shutdown.
fleet-smoke:
	./scripts/fleet-smoke.sh

# End-to-end check of cmd/bnff-profile: traced training step per scenario
# under the deterministic step clock, JSON-valid Chrome traces, byte-identical
# across runs.
profile-smoke:
	./scripts/profile-smoke.sh

# Smoke run of the paper-grade experiment harness: build cmd/bnff-exp, run
# the committed grid's smoke subset with repeats, validate the emitted
# BENCH_train.json / BENCH_serve.json (embedded checks must all pass), and
# prove the canonical forms are byte-deterministic across two runs.
exp-smoke:
	./scripts/paper/run_all.sh -smoke

# End-to-end check of data-parallel training through cmd/bnff-train: 2-replica
# sync-BN and ghost-batch runs are byte-deterministic across repeats, the two
# strategies produce different checkpoints, and -replicas 1 matches the plain
# trainer byte for byte.
ddp-smoke:
	./scripts/ddp-smoke.sh

# Allocation-regression guard: steady-state per-step heap allocations with the
# arena on must stay within the committed budget
# (internal/core/testdata/arena_alloc_budget.txt) and at least 10x below the
# legacy path. Runs without -race: the race runtime inflates AllocsPerRun, so
# the test skips itself there (see raceEnabled in internal/core).
alloc-guard:
	$(GO) test ./internal/core/ -run TestArenaForwardAllocBudget -count=1 -v

# The benchmark's own output checks. perfbench/ is a separate module, so the
# root "go test ./..." never reaches it: run every workload briefly, traced
# and untraced, and check that training replays within 1e-5, served logits
# bit-match the reference, every BENCHMARK.json metric is printed, and each
# kind of wrong output counts as a failure. Writes nothing into the tree.
perfbench-smoke:
	cd perfbench && $(GO) test ./...

check: vet race lint smoke fleet-smoke profile-smoke exp-smoke ddp-smoke alloc-guard perfbench-smoke
