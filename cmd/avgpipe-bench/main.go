// Command avgpipe-bench regenerates the paper's evaluation tables and
// figures (§2 motivation and §7) from the simulator and the real
// scaled-down training runs, plus the repository's extra ablations. With
// no arguments it prints everything; pass selectors to print a subset.
//
// Usage:
//
//	avgpipe-bench [-csv dir] [-jsonl dir] [-metrics-out file] [fig02 fig07 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 ablations]
//
// -metrics-out dumps the process-wide metrics registry (simulator run and
// drift counters, pipeline stage timings from the real training figures)
// as Prometheus text after all selected figures ran. The dump is parsed
// back through the exposition-format validator before it is written, so a
// malformed registry fails the run — `make bench-smoke` relies on this.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"avgpipe/internal/exp"
	"avgpipe/internal/obs"
	"avgpipe/internal/workload"
)

var (
	csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
	jsonlDir   = flag.String("jsonl", "", "also write each table as JSON Lines into this directory")
	metricsOut = flag.String("metrics-out", "", "write the metrics registry as validated Prometheus text to this file")
)

func emit(t *exp.Table) {
	fmt.Println(t)
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*csvDir, t.Slug()+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *jsonlDir != "" {
		if err := os.MkdirAll(*jsonlDir, 0o755); err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(filepath.Join(*jsonlDir, t.Slug()+".jsonl"))
		if err != nil {
			log.Fatal(err)
		}
		if err := t.WriteJSONL(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// dumpMetrics renders the default registry, validates the text against
// the exposition format, and writes it out. Exits non-zero on malformed
// or empty output so CI smoke tests can trust a plain file check.
func dumpMetrics(path string) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		log.Fatalf("metrics-out: render: %v", err)
	}
	samples, err := obs.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatalf("metrics-out: malformed exposition text: %v", err)
	}
	if samples == 0 {
		log.Fatal("metrics-out: registry rendered zero samples")
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		log.Fatalf("metrics-out: %v", err)
	}
	fmt.Printf("wrote %d metric samples to %s\n", samples, path)
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-csv dir] [figNN|ablations|topology ...]\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[a] = true
	}
	all := len(want) == 0
	sel := func(name string) bool { return all || want[name] }

	workloads := workload.All()

	if sel("fig02") {
		emit(exp.Fig02())
	}
	if sel("fig07") {
		emit(exp.Fig07())
	}
	if sel("fig11") || sel("fig12") || sel("fig13") {
		for _, w := range workloads {
			we := exp.EvalWorkload(exp.NewSetup(w))
			if sel("fig11") {
				emit(exp.Fig11(we))
			}
			if sel("fig12") {
				emit(exp.Fig12(we))
			}
			if sel("fig13") {
				emit(exp.Fig13(we))
			}
		}
	}
	if sel("fig14") {
		for i := range workload.Tasks() {
			emit(exp.Fig14(i))
		}
	}
	if sel("fig15") {
		emit(exp.Fig15())
	}
	if sel("fig16") {
		emit(exp.Fig16())
	}
	if sel("fig17") {
		for _, w := range workloads {
			emit(exp.Fig17a(w))
			emit(exp.Fig17b(w))
		}
		emit(exp.Fig17c())
	}
	if sel("fig18") || sel("fig19") {
		for _, w := range workloads {
			if sel("fig18") {
				emit(exp.Fig18(w))
			}
			if sel("fig19") {
				emit(exp.Fig19(w))
			}
		}
	}
	if sel("topology") {
		emit(exp.TopologyAB())
	}
	if sel("ablations") {
		emit(exp.AblationAdvance())
		emit(exp.AblationRecompute())
		emit(exp.AblationSaturation())
		for _, w := range workloads[:2] { // GNMT and BERT
			emit(exp.AblationChimera(w))
		}
		emit(exp.AblationAlpha())
		emit(exp.AblationSyncAsync())
	}
	if *metricsOut != "" {
		dumpMetrics(*metricsOut)
	}
}
