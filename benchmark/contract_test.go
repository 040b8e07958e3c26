package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json at the repo root and the tables in this package are
// two copies of one contract; they must not drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds != runSeconds || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want %d (a whole number from 1 to 60)", b.RunSeconds, runSeconds)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s / %s", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
		sawSetup = sawSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if p := b.PerLayer[i]; p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, p, d)
		}
	}
}

func metricNames(defs []metricDef) []string {
	var ns []string
	for _, d := range defs {
		ns = append(ns, d.Name)
	}
	sort.Strings(ns)
	return ns
}

func checkSchema(t *testing.T, r *runResult, defs []metricDef) {
	t.Helper()
	line, err := json.Marshal(contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(line, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 4 || doc["correct"] == nil || doc["attempted"] == nil || doc["failed"] == nil || doc["metrics"] == nil {
		t.Fatalf("result line %s: want exactly correct, attempted, failed, metrics", line)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(doc["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	var got []string
	for n, m := range ms {
		got = append(got, n)
		if _, ok := m["value"].(float64); !ok || len(m) != 2 {
			t.Errorf("%s = %v, want exactly a numeric value and a unit", n, m)
		}
	}
	sort.Strings(got)
	if want := metricNames(defs); !reflect.DeepEqual(got, want) {
		t.Errorf("metrics %v\nwant    %v", got, want)
	}
	for _, d := range defs {
		if ms[d.Name]["unit"] != d.Unit {
			t.Errorf("%s: unit %v, want %s", d.Name, ms[d.Name]["unit"], d.Unit)
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d problems=%v", r.Correct, r.Attempted, r.Failed, r.Problems)
	}
}

// A real (very short) untraced run carries every end-to-end metric with
// its unit, none of them zero, and passes its own correctness checks.
func TestUntracedResultSchema(t *testing.T) {
	r, err := runWorkload(context.Background(), workloadByName("serve-open"), 2, 0.3, false, runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	checkSchema(t, r, endToEnd)
	for n, m := range r.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %g: an end-to-end metric is never 0", n, m.Value)
		}
	}
}

// A real (very short) traced training run carries every per-layer
// metric, and its stepper reproduces Trainer.StepContext bit for bit
// with spans that account for the step.
func TestTracedResultSchemaAndFaithfulness(t *testing.T) {
	r, err := runWorkload(context.Background(), workloadByName("gnmt-n2"), 2, 0.4, true, runOpts{noProbes: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSchema(t, r, perLayer)
	if len(r.spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range r.spans {
		if s.Name != "step" && (s.Parent < 0 || r.spans[s.Parent].Op != s.Op) {
			t.Fatalf("span %v: every layer span carries its parent and the step id", s)
		}
	}
	if c := r.Metrics["trace.coverage"].Value; c < 0.98 {
		t.Errorf("trace.coverage = %g", c)
	}
}
