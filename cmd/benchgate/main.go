// Command benchgate compares `go test -bench -benchmem` output against a
// committed baseline and fails on regressions. It is the CI guard for the
// tensor/nn kernel hot path:
//
//	go test -run '^$' -bench Kernel -benchmem -count 5 ./internal/tensor/ ./internal/nn/ \
//	    | go run ./cmd/benchgate -baseline BENCH_kernels.json
//
// The minimum across -count repetitions is used for both sides, which
// suppresses scheduler noise; a benchmark fails the gate when its best
// ns/op exceeds baseline*time_regression_limit (default 1.15) or its
// allocs/op exceed baseline*alloc_regression_limit (default 1.0 — any
// increase fails; buffer-arena regressions show up here first, long
// before they are visible in wall time). Baselines whose benchmarks
// have timing-dependent allocation counts — the serve saturation
// benches, where batch composition varies run to run — set a small
// alloc_regression_limit headroom instead of giving up the check.
// Every benchmark recorded in the baseline must be present in the
// input, so silently deleting a benchmark cannot pass the gate.
//
// Re-baselining (after an intentional kernel change, or on a new CI
// machine class): run the same bench command into
// `go run ./cmd/benchgate -baseline BENCH_kernels.json -update` and commit
// the rewritten file. -update preserves the pre_overhaul_* and pre_avx2_*
// reference fields and the prose fields; only measurements, cpu, go, and
// date are replaced.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// entry is one benchmark's committed measurements. The pre_overhaul_*
// fields are a frozen reference to the pre-arena/pre-fusion kernels, the
// pre_avx2_* fields to the scalar-Go inner loops before the AVX2 kernel
// layer; neither is touched by -update.
type entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	PreOverhaulNsPerOp     float64 `json:"pre_overhaul_ns_per_op,omitempty"`
	PreOverhaulAllocsPerOp float64 `json:"pre_overhaul_allocs_per_op,omitempty"`
	PreAVX2NsPerOp         float64 `json:"pre_avx2_ns_per_op,omitempty"`
	PreAVX2AllocsPerOp     float64 `json:"pre_avx2_allocs_per_op,omitempty"`
}

type baseline struct {
	Description          string           `json:"description"`
	Method               string           `json:"method"`
	CPU                  string           `json:"cpu"`
	Go                   string           `json:"go"`
	Date                 string           `json:"date"`
	TimeRegressionLimit  float64          `json:"time_regression_limit"`
	AllocRegressionLimit float64          `json:"alloc_regression_limit,omitempty"`
	Benchmarks           map[string]entry `json:"benchmarks"`
	Notes                string           `json:"notes"`
}

// benchLine matches one `go test -bench -benchmem` result row, e.g.
//
//	BenchmarkKernelMatMulLarge-8   7   49094496 ns/op   74977 B/op   1 allocs/op
//
// The -8 GOMAXPROCS suffix is optional (absent when GOMAXPROCS=1).
var benchLine = regexp.MustCompile(
	`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ [A-Z]B/s)?\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op`)

var cpuLine = regexp.MustCompile(`^cpu:\s*(.+?)\s*$`)

func main() {
	baselinePath := flag.String("baseline", "BENCH_kernels.json", "baseline JSON to compare against (or rewrite with -update)")
	update := flag.Bool("update", false, "rewrite the baseline's measurements from this run instead of gating")
	flag.Parse()

	got := map[string]entry{}
	var cpu string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := cpuLine.FindStringSubmatch(line); m != nil {
			cpu = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		ns, _ := strconv.ParseFloat(m[2], 64)
		bytes, _ := strconv.ParseFloat(m[3], 64)
		allocs, _ := strconv.ParseFloat(m[4], 64)
		e, seen := got[name]
		if !seen {
			got[name] = entry{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
			continue
		}
		// Keep the minimum of each column across -count repetitions.
		if ns < e.NsPerOp {
			e.NsPerOp = ns
		}
		if bytes < e.BytesPerOp {
			e.BytesPerOp = bytes
		}
		if allocs < e.AllocsPerOp {
			e.AllocsPerOp = allocs
		}
		got[name] = e
	}
	if err := sc.Err(); err != nil {
		fatalf("reading bench output: %v", err)
	}
	if len(got) == 0 {
		fatalf("no benchmark results on stdin (pipe `go test -bench -benchmem` output in)")
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		fatalf("reading baseline: %v", err)
	}
	var base baseline
	if raw != nil {
		if err := json.Unmarshal(raw, &base); err != nil {
			fatalf("parsing %s: %v", *baselinePath, err)
		}
	}
	if base.TimeRegressionLimit == 0 {
		base.TimeRegressionLimit = 1.15
	}
	if base.AllocRegressionLimit == 0 {
		base.AllocRegressionLimit = 1.0
	}

	if *update {
		writeBaseline(*baselinePath, &base, got, cpu)
		return
	}
	gate(&base, got)
}

func gate(base *baseline, got map[string]entry) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		want := base.Benchmarks[name]
		have, ok := got[name]
		if !ok {
			fmt.Printf("FAIL %s: missing from bench output (all baseline benchmarks must run)\n", name)
			failed = true
			continue
		}
		limit := want.NsPerOp * base.TimeRegressionLimit
		allocLimit := want.AllocsPerOp * base.AllocRegressionLimit
		switch {
		case have.NsPerOp > limit:
			fmt.Printf("FAIL %s: %.0f ns/op exceeds %.0f (baseline %.0f * limit %.2f)\n",
				name, have.NsPerOp, limit, want.NsPerOp, base.TimeRegressionLimit)
			failed = true
		case have.AllocsPerOp > allocLimit:
			fmt.Printf("FAIL %s: %.0f allocs/op exceeds %.0f (baseline %.0f * alloc limit %.2f)\n",
				name, have.AllocsPerOp, allocLimit, want.AllocsPerOp, base.AllocRegressionLimit)
			failed = true
		default:
			fmt.Printf("ok   %s: %.0f ns/op (baseline %.0f), %.0f allocs/op (baseline %.0f)\n",
				name, have.NsPerOp, want.NsPerOp, have.AllocsPerOp, want.AllocsPerOp)
		}
	}
	if failed {
		fmt.Println("bench-gate: FAILED — if the regression is intentional, re-baseline with -update (see README)")
		os.Exit(1)
	}
	fmt.Printf("bench-gate: %d benchmarks within limits\n", len(names))
}

func writeBaseline(path string, base *baseline, got map[string]entry, cpu string) {
	if base.Benchmarks == nil {
		base.Benchmarks = map[string]entry{}
	}
	for name, have := range got {
		e := base.Benchmarks[name] // zero value keeps pre_overhaul_* empty for new benchmarks
		e.NsPerOp = have.NsPerOp
		e.BytesPerOp = have.BytesPerOp
		e.AllocsPerOp = have.AllocsPerOp
		base.Benchmarks[name] = e
	}
	if cpu != "" {
		base.CPU = cpu
	}
	base.Go = runtime.Version()
	base.Date = time.Now().UTC().Format("2006-01-02")
	out, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fatalf("encoding baseline: %v", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("bench-gate: wrote %d benchmarks to %s\n", len(got), path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
