GO ?= go

.PHONY: ci fmt vet vet-obs build cross test test-benchmark race faults faults-soak fuzz-smoke exhaustive-act bench-smoke bench-gate bench-baseline bench-graph-gate bench-graph-baseline bench-serve-gate bench-serve-baseline cover

# ci is the full verification tier: formatting, static checks (including
# the obs build tag, which turns on strict metric-name validation), build,
# the arm64 cross-build, tests (root module and benchmark/), the race-detector pass over the
# concurrent packages, the seeded chaos matrix, the self-healing chaos
# soak, the wire-codec fuzz smoke, the exhaustive activation-kernel proof,
# the metrics-exposition and collector-overhead smoke, the kernel,
# compiled op-graph, and inference-serving benchmark-regression gates,
# and the coverage floors. The GitHub workflow (.github/workflows/ci.yml)
# runs exactly these targets, split across its ci and bench jobs.
ci: fmt vet vet-obs build cross test test-benchmark race faults faults-soak fuzz-smoke exhaustive-act bench-smoke bench-gate bench-graph-gate bench-serve-gate cover

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

vet-obs:
	$(GO) vet -tags obs ./...

build:
	$(GO) build ./...

# cross proves the kernel layer's file sets are complete on a platform
# without assembly: internal/tensor splits each inner loop into the Go
# definition (kernels.go), the amd64 dispatch + AVX2 twins
# (kernels_amd64.{go,s}) and the everything-else forwarding
# (kernels_noasm.go), and a symbol missing from or duplicated in the
# non-amd64 set only shows when something builds it. On amd64 `make vet`
# already checks the .s frames against their Go declarations (asmdecl).
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/

test:
	$(GO) test ./...

# test-benchmark runs the contract tests of the end-to-end benchmark: it
# is its own module (benchmark/go.mod), so ./... above does not reach it.
test-benchmark:
	cd benchmark && $(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/comm/... ./internal/heal/... ./internal/net/... ./internal/obs/... ./internal/tensor/... ./internal/compiled/... ./internal/serve/...

# fuzz-smoke runs the wire-codec fuzz target for 30 seconds on top of
# its checked-in regression corpus (internal/net/testdata/fuzz): decode
# must never panic on arbitrary bytes, and any bytes that decode must
# re-encode to exactly the consumed prefix (the canonical-encoding
# property the mesh relies on).
fuzz-smoke:
	$(GO) test ./internal/net/ -run '^FuzzDecodeFrame$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 30s

# exhaustive-act checks the verified sigmoid/tanh/GELU/GELU' kernels
# against Sigmoid32/Tanh32/Gelu32/GeluDeriv32 on all 2^32 float32 inputs
# each, spread over GOMAXPROCS, and prints each kernel's fallback share
# (~3.5 min on 2 vCPUs, inside the 30m test timeout). The
# exhaustive build tag selects that test only; the kernels are the same
# without it. It also checks the rejected-input tables the tier-1 test
# reads (internal/tensor/testdata/act-rejects-*.f32); after a change to
# the kernels, rewrite them with AVGPIPE_WRITE_ACT_REJECTS=1.
exhaustive-act:
	$(GO) test -tags exhaustive ./internal/tensor/ -run '^TestActKernelsExhaustive$$' -count=1 -v -timeout 30m

# faults is the robustness tier: first the seeded-determinism check (the
# same fault seed must produce the identical fault schedule on repeat
# runs), then the chaos suite — crash/rejoin a replica with delayed
# averaging messages — swept over a fixed seed matrix, then the
# averaging-protocol explorer over 2000 seeds per scenario, replica
# count and topology (tier 1 runs 150).
FAULT_SEEDS ?= 99 7 1234
faults:
	$(GO) test ./internal/fault/ -run TestSeededDeterminism -count=2
	@for seed in $(FAULT_SEEDS); do \
		echo "faults: chaos suite, seed $$seed"; \
		AVGPIPE_CHAOS_SEED=$$seed $(GO) test ./internal/core/ -count=1 \
			-run 'TestTrainerChaosRecovery|TestWatchdogKillsWedgedSchedule|TestAveragerRoundDeadlineExpiresPartialRound|TestCheckpointBitExact' \
			|| exit 1; \
	done
	AVGPIPE_EXPLORE_SEEDS=2000 $(GO) test ./internal/core/ -count=1 -run '^TestExplore'

# faults-soak is the self-healing recovery gate: a 2-process TCP job
# under seeded drops and stragglers has one replica killed hard and
# restarted on the same address. The mesh must re-knit itself, the
# supervisor must auto-detach and re-admit the replica, and the
# recovered job must reach >=90% of its fault-free throughput (see
# internal/heal and the Self-healing section of DESIGN.md). Runs once
# on the default full mesh and once on the ring fabric, whose restarted
# sessions must also re-negotiate the topology group hello (§15).
faults-soak:
	AVGPIPE_SOAK=1 $(GO) test ./internal/heal/ -run '^TestChaosSoakRecovery(Ring)?$$' -count=1 -v

# bench-smoke runs one cheap figure with the metrics dump enabled, then
# the cluster-telemetry overhead gate. avgpipe-bench validates the
# rendered exposition text itself (it exits non-zero on malformed or
# empty output); the grep double-checks that the file on disk actually
# carries avgpipe_* samples. The dump goes to a mktemp file so
# concurrent invocations cannot clobber each other, and is removed on
# every exit path. The overhead gate measures publishing snapshots to a
# live collector against the collector_overhead_limit budget recorded
# in BENCH_obs.json (<3% of step time); a regression fails `make ci`.
bench-smoke:
	@out="$$(mktemp -t avgpipe-metrics.XXXXXX.prom)"; \
	trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/avgpipe-bench -metrics-out "$$out" fig07 >/dev/null || exit 1; \
	grep -q '^avgpipe_' "$$out" || \
		{ echo "bench-smoke: no avgpipe_ samples in $$out"; exit 1; }; \
	echo "bench-smoke: /metrics output OK ($$(grep -c '^avgpipe_' "$$out") samples)"
	AVGPIPE_BENCH_COLLECT=1 $(GO) test ./internal/obs/collect/ \
		-run '^TestCollectorOverheadGate$$' -count=1

# The micro-benchmark regression gates are one recipe over this table:
# BENCH_<name> = <-bench pattern> <packages...>, baseline BENCH_<name>.json.
# Gate and re-baseline share bench_flags so they always measure the same
# way: allocation counts on, minimum taken across 5 repetitions.
#   kernels: every Kernel* benchmark in the tensor and nn packages.
#   graph:   every Graph* benchmark replays one full steady-state
#            micro-batch (forward, 2BP grad-input, grad-weight, EndMicro)
#            against a pre-built Program and pooled Env; the replay makes
#            zero allocation decisions on slot registers, so a new
#            per-micro-batch allocation means the compiler or planner
#            regressed.
#   serve:   a deterministic full-batch forward through the worker path,
#            the closed-loop saturation number (1/ns_per_op = sustained
#            req/s through the real dispatcher), and the p99 latency at a
#            fixed offered load (reported as that benchmark's ns/op).
BENCH_kernels = Kernel ./internal/tensor/ ./internal/nn/
BENCH_graph   = Graph ./internal/nn/
BENCH_serve   = Serve ./internal/serve/
bench_flags = -run '^$$' -bench $(firstword $(BENCH_$*)) -benchmem -benchtime 300ms -count 5 $(wordlist 2,9,$(BENCH_$*))

# bench-gate-<name> fails on regressions against the committed
# BENCH_<name>.json: >15% ns/op, or ANY allocs/op increase (arena
# regressions surface in allocation counts long before wall time moves).
# BENCH_serve.json carries an elevated time_regression_limit (tail
# latency is noisier than kernel time) and a small alloc_regression_limit
# (batch composition under load varies run to run).
bench-gate-%:
	@out="$$(mktemp -t avgpipe-bench-$*.XXXXXX.txt)"; \
	trap 'rm -f "$$out"' EXIT; \
	$(GO) test $(bench_flags) > "$$out" 2>&1 || { cat "$$out"; exit 1; }; \
	$(GO) run ./cmd/benchgate -baseline BENCH_$*.json < "$$out"

# bench-baseline-<name> rewrites BENCH_<name>.json from a fresh run. Use
# after an intentional change to that layer or on a new machine class,
# and commit the result; pre_overhaul_* reference fields are preserved
# (see README "Benchmarking & re-baselining").
bench-baseline-%:
	$(GO) test $(bench_flags) | $(GO) run ./cmd/benchgate -baseline BENCH_$*.json -update

# The names ci.yml and the README use.
bench-gate: bench-gate-kernels
bench-graph-gate: bench-gate-graph
bench-serve-gate: bench-gate-serve
bench-baseline: bench-baseline-kernels
bench-graph-baseline: bench-baseline-graph
bench-serve-baseline: bench-baseline-serve

# cover reports per-package coverage and enforces a 70% floor on the
# kernel hot path (internal/tensor), the op-graph compiler
# (internal/compiled), the inference server (internal/serve), and the
# wire/topology/compression layer (internal/net), whose correctness
# claims lean on exhaustive tests rather than review.
cover:
	@$(GO) test -cover ./... | grep -v '\[no test files\]'
	@for pkg in ./internal/tensor/ ./internal/compiled/ ./internal/serve/ ./internal/net/; do \
		pct="$$($(GO) test -cover $$pkg | grep -o 'coverage: [0-9.]*' | grep -o '[0-9.]*')"; \
		ok="$$(echo "$$pct 70" | awk '{print ($$1 >= $$2) ? 1 : 0}')"; \
		if [ "$$ok" != 1 ]; then \
			echo "cover: $$pkg coverage $$pct% is below the 70% floor"; exit 1; \
		fi; \
		echo "cover: $$pkg coverage $$pct% meets the 70% floor"; \
	done
