package main

import (
	"fmt"
	"strings"
	"testing"
)

// row renders one `go test -bench -benchmem` result line the way the
// testing package prints it, GOMAXPROCS suffix included.
func row(name string, ns, allocs float64) string {
	return fmt.Sprintf("Benchmark%s-2   \t    1000\t %12.0f ns/op\t     128 B/op\t %7.0f allocs/op\n", name, ns, allocs)
}

// runs renders one run per pair: the k-th run holds each benchmark's
// k-th sample, under the header lines a test binary prints.
func runs(samples map[string][][2]float64) string {
	var sb strings.Builder
	for k := 0; ; k++ {
		wrote := false
		sb.WriteString("goos: linux\ngoarch: amd64\npkg: avgpipe/internal/tensor\ncpu: Test CPU\n")
		for name, s := range samples {
			if k < len(s) {
				sb.WriteString(row(name, s[k][0], s[k][1]))
				wrote = true
			}
		}
		sb.WriteString("PASS\n")
		if !wrote {
			return sb.String()
		}
	}
}

// same gives n samples of one (ns/op, allocs/op) value.
func same(n int, ns, allocs float64) [][2]float64 {
	s := make([][2]float64, n)
	for k := range s {
		s[k] = [2]float64{ns, allocs}
	}
	return s
}

// check parses base and change, gates them, and returns the verdict and
// the report.
func check(t *testing.T, base, change string) (bool, string) {
	t.Helper()
	b, err := parse(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parse(strings.NewReader(change))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	ok := gate(b, c, &out)
	return ok, out.String()
}

// line returns the report line of benchmark name.
func line(t *testing.T, report, name string) string {
	t.Helper()
	for _, l := range strings.Split(report, "\n") {
		if strings.HasPrefix(l[min(5, len(l)):], name+":") {
			return l
		}
	}
	t.Fatalf("no line for %s in\n%s", name, report)
	return ""
}

func TestGateSlowerInMajorityOfPairsFails(t *testing.T) {
	base := runs(map[string][][2]float64{"KernelTanh": same(5, 1000, 0)})
	// Over the limit in 3 of 5 pairs: a majority.
	over := 1000 * (timeLimit + 0.05)
	slow := runs(map[string][][2]float64{"KernelTanh": {{over, 0}, {900, 0}, {over + 100, 0}, {1000, 0}, {over, 0}}})
	ok, report := check(t, base, slow)
	if ok || !strings.HasPrefix(line(t, report, "KernelTanh"), "FAIL") {
		t.Fatalf("3 of 5 pairs over the limit passed:\n%s", report)
	}
	if l := line(t, report, "KernelTanh"); !strings.Contains(l, fmt.Sprintf("median ratio %.3f", over/1000)) || !strings.Contains(l, "1/5 wins") {
		t.Fatalf("median ratio or wins misreported: %s", l)
	}
	// Over the limit in 2 of 5, however far: no majority, so it passes.
	noisy := runs(map[string][][2]float64{"KernelTanh": {{3000, 0}, {900, 0}, {2000, 0}, {1000, 0}, {1050, 0}}})
	if ok, report := check(t, base, noisy); !ok {
		t.Fatalf("2 of 5 pairs over the limit failed:\n%s", report)
	}
}

func TestGatePairsByRunOrder(t *testing.T) {
	// The base drifts slow and fast; the change tracks it 5% behind.
	// Each pair is within the limit, though the change's slowest run is
	// 1.9x the base's fastest.
	base := runs(map[string][][2]float64{"KernelGELU": {{1000, 0}, {1800, 0}, {1000, 0}, {1800, 0}, {1000, 0}}})
	change := runs(map[string][][2]float64{"KernelGELU": {{1050, 0}, {1890, 0}, {1050, 0}, {1890, 0}, {1050, 0}}})
	if ok, report := check(t, base, change); !ok {
		t.Fatalf("pairs within the limit failed:\n%s", report)
	}
}

func TestGateMedianAllocsOverBaseLargestFails(t *testing.T) {
	// The base's counts vary with scheduling, 58 to 60.
	base := runs(map[string][][2]float64{"ServeSaturatedPredict": {{100, 58}, {100, 60}, {100, 59}, {100, 58}, {100, 60}}})
	within := runs(map[string][][2]float64{"ServeSaturatedPredict": {{100, 60}, {100, 61}, {100, 59}, {100, 60}, {100, 61}}})
	if ok, report := check(t, base, within); !ok {
		t.Fatalf("median 60 against a largest of 60 failed:\n%s", report)
	}
	over := runs(map[string][][2]float64{"ServeSaturatedPredict": {{100, 61}, {100, 60}, {100, 61}, {100, 59}, {100, 61}}})
	ok, report := check(t, base, over)
	if l := line(t, report, "ServeSaturatedPredict"); ok || !strings.HasPrefix(l, "FAIL") || !strings.Contains(l, "allocates more") {
		t.Fatalf("median 61 against a largest of 60 passed:\n%s", report)
	}
	// One allocation on a path that allocated nothing.
	ok, report = check(t,
		runs(map[string][][2]float64{"KernelDiluteRows": same(5, 100, 0)}),
		runs(map[string][][2]float64{"KernelDiluteRows": same(5, 100, 1)}))
	if ok || !strings.HasPrefix(line(t, report, "KernelDiluteRows"), "FAIL") {
		t.Fatalf("an extra allocation per op passed:\n%s", report)
	}
}

func TestGateMissingFromChangeFails(t *testing.T) {
	base := runs(map[string][][2]float64{"KernelTanh": same(5, 1000, 0), "KernelSigmoid": same(5, 1000, 0)})
	change := runs(map[string][][2]float64{"KernelTanh": same(5, 1000, 0)})
	ok, report := check(t, base, change)
	if l := line(t, report, "KernelSigmoid"); ok || !strings.HasPrefix(l, "FAIL") || !strings.Contains(l, "missing") {
		t.Fatalf("a benchmark gone from the change passed:\n%s", report)
	}
	if l := line(t, report, "KernelTanh"); !strings.HasPrefix(l, "ok") {
		t.Fatalf("the benchmark that ran was not ok: %s", l)
	}
}

func TestGateNewBenchmarkIsReportedNotGated(t *testing.T) {
	base := runs(map[string][][2]float64{"KernelTanh": same(5, 1000, 0)})
	change := runs(map[string][][2]float64{"KernelTanh": same(5, 1000, 0), "KernelErf": same(5, 1e9, 99)})
	ok, report := check(t, base, change)
	if !ok {
		t.Fatalf("a new benchmark failed the gate:\n%s", report)
	}
	if l := line(t, report, "KernelErf"); !strings.HasPrefix(l, "new") {
		t.Fatalf("the new benchmark was not reported as new: %s", l)
	}
}

func TestGateUnequalPairCountsFail(t *testing.T) {
	base := runs(map[string][][2]float64{"KernelTanh": same(5, 1000, 0)})
	change := runs(map[string][][2]float64{"KernelTanh": same(4, 1000, 0)})
	if ok, report := check(t, base, change); ok {
		t.Fatalf("4 change results against 5 base results passed:\n%s", report)
	}
}

func TestParseNamesSuffixesAndSubBenchmarks(t *testing.T) {
	out := "goos: linux\n" +
		"BenchmarkKernelGEMMSmall/gnmt_8x48x192/TransA-2   \t   43764\t      7122 ns/op\t       1 B/op\t       0 allocs/op\n" +
		"BenchmarkKernelMatMulLarge-16   7   49094496 ns/op   74977 B/op   1 allocs/op\n" +
		"BenchmarkKernelSigmoid   19724   18875 ns/op   0 B/op   0 allocs/op\n" +
		"BenchmarkKernelAxpy-2   100   2500 ns/op   3355.44 MB/s   0 B/op   0 allocs/op\n" +
		"BenchmarkKernelNoMem-2   100   2500 ns/op\n" +
		"--- FAIL: BenchmarkKernelBroken\n"
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]sample{
		"KernelGEMMSmall/gnmt_8x48x192/TransA": {7122, 0},
		"KernelMatMulLarge":                    {49094496, 1},
		"KernelSigmoid":                        {18875, 0},
		"KernelAxpy":                           {2500, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, s := range want {
		if len(got[name]) != 1 || got[name][0] != s {
			t.Errorf("%s: parsed %v, want [%v]", name, got[name], s)
		}
	}
}

func TestGateWithoutResultsFails(t *testing.T) {
	some := runs(map[string][][2]float64{"KernelTanh": same(5, 1000, 0)})
	for _, c := range []struct{ name, base, change string }{
		{"empty base", "", some},
		{"empty change", some, ""},
		{"no result rows", "goos: linux\nPASS\n", "--- FAIL: BenchmarkKernelTanh\nFAIL\n"},
	} {
		if ok, report := check(t, c.base, c.change); ok || !strings.Contains(report, "no benchmark results") {
			t.Errorf("%s: passed or misreported:\n%s", c.name, report)
		}
	}
}
