// Command benchmark is the repo's one performance ledger: four named
// workloads, each measured end to end (untraced) and layer by layer
// (traced, spans recorded by this package around calls into each
// layer's public functions). See README.md in this directory.
//
//	benchmark -workload gnmt-n2 -seed 1 -seconds 20 -trace 0   one contract run
//	benchmark                                                  every workload, untraced then traced
//	benchmark -repeat 10                                       noise calibration
//	benchmark -selfcheck                                       injected delays land where predicted
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// contractLine is the last line of standard output of a single-workload
// run: exactly these keys.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the JSON result file: where it was measured and every run.
type report struct {
	Environment environment  `json:"environment"`
	Runs        []*runResult `json:"runs"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all four)")
		seed      = flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", runSeconds, "length of one run's measurement")
		trace     = flag.Int("trace", -1, "0 = untraced end-to-end run, 1 = traced per-layer run, -1 = both")
		traceOut  = flag.String("trace-out", filepath.Join(buildDir, "trace.json"), "Chrome-trace file the traced runs' spans are written to")
		outPath   = flag.String("out", filepath.Join(buildDir, "result.json"), "JSON result file")
		repeat    = flag.Int("repeat", 0, "run each workload this many times untraced and print median, quartiles and spread")
		selfcheck = flag.Bool("selfcheck", false, "inject delays through TrainerConfig.Faults and check they land in the predicted metrics")
		contract  = flag.Bool("contract", false, "print BENCHMARK.json as this package's tables define it, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *contract {
		printContract(os.Stdout)
		return
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if *trace < -1 || *trace > 1 {
		fatalf("-trace must be 0, 1 or -1")
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		selected = []workload{*w}
	}
	ctx := context.Background()
	env := readEnvironment()
	fmt.Printf("# GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s\n",
		env.GOMAXPROCS, env.NumCPU, env.CPUModel, env.GoVersion, env.Commit)

	switch {
	case *selfcheck:
		if err := runSelfcheck(ctx, *seed, *seconds); err != nil {
			fatalf("selfcheck: %v", err)
		}
		fmt.Println("selfcheck: ok")
		return
	case *repeat > 0:
		if err := runRepeat(ctx, selected, *seed, *seconds, *repeat); err != nil {
			fatalf("repeat: %v", err)
		}
		return
	}

	rep := report{Environment: env}
	var traces []tracedSpans
	ok := true
	for i := range selected {
		w := &selected[i]
		for _, traced := range []bool{false, true} {
			if (*trace == 0 && traced) || (*trace == 1 && !traced) {
				continue
			}
			res, err := runWorkload(ctx, w, *seed, *seconds, traced, runOpts{})
			if err != nil {
				fatalf("%s: %v", w.Name, err)
			}
			printResult(os.Stdout, res)
			rep.Runs = append(rep.Runs, res)
			ok = ok && res.Correct
			if traced {
				traces = append(traces, tracedSpans{Workload: w.Name, Spans: res.spans})
			}
		}
	}
	if err := writeFiles(&rep, *outPath, traces, *traceOut); err != nil {
		fatalf("%v", err)
	}
	if len(rep.Runs) == 1 {
		r := rep.Runs[0]
		line, err := json.Marshal(contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", line)
		return
	}
	if !ok {
		fatalf("a correctness check failed")
	}
}

// buildDir holds everything the benchmark writes: results, traces, and
// the checkpoint probe's temporary directories.
const buildDir = ".bench_build"

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func writeFiles(rep *report, outPath string, traces []tracedSpans, tracePath string) error {
	write := func(path string, fill func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fill(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		return f.Close()
	}
	err := write(outPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
	if err != nil || len(traces) == 0 {
		return err
	}
	return write(tracePath, func(w io.Writer) error { return writeChromeTrace(w, traces) })
}

func printResult(w io.Writer, r *runResult) {
	mode := "untraced (end to end)"
	if r.Traced {
		mode = "traced (per layer)"
	}
	fmt.Fprintf(w, "\n== %s  %s  seed=%d  seconds=%g\n", r.Workload, mode, r.Seed, r.Seconds)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
	if r.Whole != nil {
		fmt.Fprintf(w, "whole run: %.6g ops/s, p50 %.6g ms, %.6g cpu ms/op; the metrics above are the best of %d one-second windows\n",
			r.Whole.OpsPerS, r.Whole.P50MS, r.Whole.CPUMSPerOp, r.Whole.Windows)
	}
	fmt.Fprintf(w, "op time: p50 %.4g ms, p%g %.4g ms, %d samples; attempted %d, failed %d (fail_share %.4g)\n",
		r.Op.P50, r.Op.TailPct, r.Op.Tail, r.Op.N, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, p := range r.Problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}
}

// printContract renders BENCHMARK.json from the workload and metric
// tables, so the file at the repo root is generated, not hand-kept:
// `benchmark -contract > BENCHMARK.json`.
func printContract(w io.Writer) {
	type row map[string]any
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, row{"name": wl.Name, "why": wl.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, row{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, row{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		fatalf("%v", err)
	}
}
