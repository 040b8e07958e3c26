// Command benchgate is the paired benchmark gate: it compares a change's
// `go test -bench -benchmem` results against its base commit's, both
// measured on the same machine in alternating runs, and fails on a
// regression:
//
//	benchgate BASE.txt CHANGE.txt
//
// Each file holds the output of several runs of one benchmark set, one
// result per benchmark per run (-count 1). The k-th result of a
// benchmark in BASE.txt and the k-th in CHANGE.txt are its k-th pair.
// `make bench-gate-<set>` builds both sides, runs them in pairs whose
// order alternates, and calls this command (see the Makefile).
//
// A benchmark fails when
//   - its change/base ns/op ratio exceeds timeLimit in a majority of
//     its pairs;
//   - the change's median allocs/op exceeds the base's largest (buffer
//     and arena regressions show here long before wall time moves; the
//     base's spread absorbs counts that vary with scheduling, as the
//     serve benchmarks' do);
//   - it ran at the base but not in the change, so deleting a benchmark
//     cannot pass.
//
// A benchmark that is new in the change is reported but not gated.
// Every benchmark's line gives its median ratio and its wins, the pairs
// in which the change ran faster.
package main

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
)

// timeLimit is the change/base ns/op ratio a pair may not exceed. The
// A/A calibration in EXPERIMENTS.md ("The paired benchmark gate") sets
// it: on a shared 2-vCPU box the small compute-bound kernels read over
// it in about a quarter of their pairs with both sides built from one
// commit, never in a majority of 31, while a kernel made about 20%
// slower reads over it in most of its pairs.
const timeLimit = 1.15

// benchLine matches one `go test -bench -benchmem` result row, e.g.
//
//	BenchmarkKernelMatMulLarge-8   7   49094496 ns/op   74977 B/op   1 allocs/op
//
// The -8 GOMAXPROCS suffix is optional (absent when GOMAXPROCS=1).
var benchLine = regexp.MustCompile(
	`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ [A-Z]B/s)?\s+[0-9.]+ B/op\s+([0-9.]+) allocs/op`)

// sample is one run's result for one benchmark.
type sample struct{ ns, allocs float64 }

// parse collects every result row in r, in run order, by benchmark name.
func parse(r io.Reader) (map[string][]sample, error) {
	got := map[string][]sample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		allocs, _ := strconv.ParseFloat(m[3], 64)
		got[m[1]] = append(got[m[1]], sample{ns, allocs})
	}
	return got, sc.Err()
}

// gate applies the rule to every benchmark of base and change, writes
// one line per benchmark to w, and reports whether all of them pass.
func gate(base, change map[string][]sample, w io.Writer) bool {
	if len(base) == 0 || len(change) == 0 {
		fmt.Fprintln(w, "bench-gate: FAILED, no benchmark results (feed it `go test -bench -benchmem` output)")
		return false
	}
	ok := true
	for _, name := range names(base, change) {
		b, c := base[name], change[name]
		switch {
		case b == nil:
			fmt.Fprintf(w, "new  %s: not at base, not gated\n", name)
			continue
		case c == nil:
			fmt.Fprintf(w, "FAIL %s: ran at base, missing from the change\n", name)
			ok = false
			continue
		case len(b) != len(c):
			fmt.Fprintf(w, "FAIL %s: %d base results but %d change results, no pairs\n", name, len(b), len(c))
			ok = false
			continue
		}
		ratios := make([]float64, len(b))
		var wins, over int
		var baseAllocs, changeAllocs []float64
		for k := range b {
			ratios[k] = c[k].ns / b[k].ns
			if ratios[k] < 1 {
				wins++
			}
			if ratios[k] > timeLimit {
				over++
			}
			baseAllocs = append(baseAllocs, b[k].allocs)
			changeAllocs = append(changeAllocs, c[k].allocs)
		}
		verdict := "ok  "
		slower := 2*over > len(b)
		allocs := median(changeAllocs) > slices.Max(baseAllocs)
		if slower || allocs {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(w, "%s %s: median ratio %.3f, %d/%d wins, %d/%d pairs over %.2f; allocs/op %g (base largest %g)",
			verdict, name, median(ratios), wins, len(b), over, len(b), timeLimit, median(changeAllocs), slices.Max(baseAllocs))
		if slower {
			fmt.Fprint(w, ", slower in a majority of pairs")
		}
		if allocs {
			fmt.Fprint(w, ", allocates more")
		}
		fmt.Fprintln(w)
	}
	if !ok {
		fmt.Fprintln(w, "bench-gate: FAILED")
		return false
	}
	fmt.Fprintf(w, "bench-gate: %d benchmarks pass\n", len(base))
	return true
}

// names lists every benchmark of base and change, sorted.
func names(base, change map[string][]sample) []string {
	all := maps.Clone(base)
	maps.Copy(all, change)
	out := make([]string, 0, len(all))
	for name := range all {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate BASE.txt CHANGE.txt")
		os.Exit(2)
	}
	base, change := load(os.Args[1]), load(os.Args[2])
	if !gate(base, change, os.Stdout) {
		os.Exit(1)
	}
}

func load(path string) map[string][]sample {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	got, err := parse(f)
	if err != nil {
		fatalf("reading %s: %v", path, err)
	}
	return got
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
