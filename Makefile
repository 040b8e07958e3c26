GO ?= go

.PHONY: ci fmt vet vet-obs build cross test test-benchmark selfcheck figures race faults faults-soak fuzz-smoke exhaustive-act bench-smoke bench-gate bench-graph-gate bench-serve-gate cover

# ci is the full verification tier: formatting, static checks (including
# the obs build tag, which turns on strict metric-name validation), build,
# the arm64 cross-build, tests (root module and benchmark/), the
# benchmark's end-to-end self-check, the figure goldens, the
# race-detector pass over the concurrent packages, the seeded chaos
# matrix, the self-healing chaos soak, the wire-codec fuzz smoke, the
# exhaustive activation-kernel proof, the metrics-exposition and
# collector-overhead smoke, the kernel, compiled op-graph, and
# inference-serving benchmark-regression gates, and the coverage floors.
# The GitHub workflow (.github/workflows/ci.yml) runs exactly these
# targets, split across its ci and bench jobs.
ci: fmt vet vet-obs build cross test test-benchmark selfcheck figures race faults faults-soak fuzz-smoke exhaustive-act bench-smoke bench-gate bench-graph-gate bench-serve-gate cover

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

# selfcheck runs the benchmark's end-to-end self-check (benchmark
# -selfcheck): among other things, an injected straggler delay must show
# up in the pipeline's measured stage busy time (core.stage_busy_ms).
# About 20 s; it prints "selfcheck: ok".
selfcheck:
	cd benchmark && $(GO) run . -selfcheck -seconds 4

# figures diffs every slow deterministic figure command, each the same
# bytes on every run and at any GOMAXPROCS, against its golden in
# internal/exp/testdata/<fig>.txt: the simulated figures `fig11`-`fig13`
# and `fig15`-`fig17` (about 5 s to 12 s each on 2 vCPUs), `fig14` —
# real training of the four systems Fig. 14 compares — and
# `fig18`/`fig19`, the tuning cost and tuning result of the
# configuration search (about 30 s each). The sub-second `fig02` and
# `fig07` are compared in tier 1 instead (internal/exp
# TestFigureGoldens). A change that moves the cost model's, a trainer's
# or the tuner's arithmetic moves them; rewrite a golden only for a
# change meant to. `ablations` (its async row varies run to run) and
# `topology` are not pinned.
figures:
	@for fig in fig11 fig12 fig13 fig15 fig16 fig17 fig14 fig18 fig19; do \
		$(GO) run ./cmd/avgpipe-bench $$fig | diff -u internal/exp/testdata/$$fig.txt - || exit 1; \
	done

race:
	$(GO) test -race ./internal/core/... ./internal/comm/... ./internal/heal/... ./internal/net/... ./internal/obs/... ./internal/tensor/... ./internal/compiled/... ./internal/serve/... ./internal/nn/... ./internal/optim/...

# fuzz-smoke runs each fuzz target for 30 seconds. The wire codec's
# runs on top of its checked-in regression corpus
# (internal/net/testdata/fuzz): decode must never panic on arbitrary
# bytes, and any bytes that decode must re-encode to exactly the consumed
# prefix (the canonical-encoding property the mesh relies on). The GEMM
# target holds MatMul, MatMulBiasAct, MatMulTransA, MatMulTransAAcc and
# SumRowsAcc to the same bits with the AVX2 layer on and off, over fuzzed
# shapes and special values (it skips without AVX2).
fuzz-smoke:
	$(GO) test ./internal/net/ -run '^FuzzDecodeFrame$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 30s
	$(GO) test ./internal/tensor/ -run '^FuzzGEMMMatchesGo$$' -fuzz '^FuzzGEMMMatchesGo$$' -fuzztime 30s

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
# on the default full mesh and once on the ring fabric; on both, every
# restarted session re-sends and re-checks the mesh handshake (§15).
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

# The micro-benchmark regression gates are one paired recipe over this
# table: BENCH_<set> = <-bench pattern> <packages...>.
#   kernels: every Kernel* benchmark in the tensor and nn packages.
#   graph:   every Graph* benchmark replays one full steady-state
#            micro-batch (forward, 2BP grad-input, grad-weight, EndMicro)
#            against a pre-built Program and pooled Env; the replay makes
#            zero allocation decisions on slot registers, so a new
#            per-micro-batch allocation means the compiler or planner
#            regressed.
#   serve:   a deterministic full-batch forward through runBatch, the
#            closed-loop saturation number (1/ns_per_op = sustained req/s
#            through Predict), and the p99 latency at a fixed offered
#            load (reported as that benchmark's ns/op).
BENCH_kernels = Kernel ./internal/tensor ./internal/nn
BENCH_graph   = Graph ./internal/nn
BENCH_serve   = Serve ./internal/serve
bench_pattern = $(firstword $(BENCH_$*))
bench_pkgs    = $(wordlist 2,9,$(BENCH_$*))

# BASE is the commit a change is measured against.
BASE ?= HEAD

# bench-gate-<set> measures the working tree against BASE on this
# machine. It builds the set's test binaries once from BASE (extracted
# with git archive, so no network) and once from the working tree, both
# -trimpath so that equal sources give equal binaries. Then, one
# benchmark at a time so that the two sides of a pair run within about
# 0.1 s of each other, it runs 31 pairs of 20 ms windows, base first in
# odd pairs and change first in even ones, each in its side's package
# directory. cmd/benchgate holds the rule: a benchmark fails when it is
# over the ratio limit in a majority of its pairs, allocates more, or
# is gone. The committed BENCH_*.json files are the recorded
# trajectory; no gate reads them.
bench-gate-%:
	@tmp="$$(mktemp -d -t avgpipe-bench-$*.XXXXXX)"; \
	trap 'rm -rf "$$tmp"' EXIT; \
	git archive -o "$$tmp/src.tar" $(BASE) && mkdir "$$tmp/src" && tar -xf "$$tmp/src.tar" -C "$$tmp/src" || exit 1; \
	(cd "$$tmp/src" && $(GO) test -c -trimpath -o "$$tmp/base/" $(bench_pkgs)) || exit 1; \
	$(GO) test -c -trimpath -o "$$tmp/change/" $(bench_pkgs) || exit 1; \
	run() { \
		side=$$1; shift; dir=.; [ $$side = change ] || dir="$$tmp/src"; \
		(cd "$$dir/$$pkg" && "$$tmp/$$side/$${pkg##*/}.test" -test.run '^$$' -test.timeout 2m -test.benchmem "$$@"); \
	}; \
	for pkg in $(bench_pkgs); do \
		names="$$( { run base -test.bench '$(bench_pattern)' -test.benchtime 1x; \
			run change -test.bench '$(bench_pattern)' -test.benchtime 1x; } | \
			sed -n 's/^Benchmark\([^[:space:]]*\)-[0-9][0-9]*[[:space:]].*/\1/p' | sort -u)"; \
		for name in $$names; do \
			re="$$(echo "Benchmark$$name" | sed 's,[^/]*,^&$$,g')"; \
			for pair in $$(seq 31); do \
				order="base change"; [ $$((pair % 2)) = 1 ] || order="change base"; \
				for side in $$order; do \
					run $$side -test.bench "$$re" -test.benchtime 20ms >> "$$tmp/$$side.txt" 2>&1 || \
						{ cat "$$tmp/$$side.txt"; exit 1; }; \
				done; \
			done; \
		done; \
	done; \
	$(GO) run ./cmd/benchgate "$$tmp/base.txt" "$$tmp/change.txt"

# The names ci.yml and the README use.
bench-gate: bench-gate-kernels
bench-graph-gate: bench-gate-graph
bench-serve-gate: bench-gate-serve

# cover reports per-package coverage and enforces a 70% floor on the
# kernel hot path (internal/tensor), the op-graph compiler
# (internal/compiled), the inference server (internal/serve), the
# wire/topology/compression layer (internal/net), the trainer and
# averaging shell whose protocol the seeded explorer proves
# (internal/core), the schedule layer and simulator that hold the
# dependency rule's consumers outside the runtime (internal/sched,
# internal/pipesim), whose correctness claims lean on exhaustive tests
# rather than review, the modules and optimizers whose saved state
# goes through the one checkpoint codec (internal/nn, internal/optim),
# and the recovery supervisor (internal/heal).
cover:
	@$(GO) test -cover ./... | grep -v '\[no test files\]'
	@for pkg in ./internal/tensor/ ./internal/compiled/ ./internal/serve/ ./internal/net/ ./internal/core/ ./internal/sched/ ./internal/pipesim/ ./internal/nn/ ./internal/optim/ ./internal/heal/; do \
		pct="$$($(GO) test -cover $$pkg | grep -o 'coverage: [0-9.]*' | grep -o '[0-9.]*')"; \
		ok="$$(echo "$$pct 70" | awk '{print ($$1 >= $$2) ? 1 : 0}')"; \
		if [ "$$ok" != 1 ]; then \
			echo "cover: $$pkg coverage $$pct% is below the 70% floor"; exit 1; \
		fi; \
		echo "cover: $$pkg coverage $$pct% meets the 70% floor"; \
	done
