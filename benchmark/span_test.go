package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// A parent's self time is its duration minus what its children cover,
// with overlapping (parallel-lane) children counted once and children
// clipped to the parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "step", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 50},  // lane 1
		{Name: "b", Parent: 0, Start: 30, End: 70},  // lane 2, overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "a.inner", Parent: 1, Start: 20, End: 30},
	}
	self := selfTimes(spans)
	want := []int64{100 - (60 + 10), 40 - 10, 40, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if got, want := coverage(spans, "step"), 0.7; got != want {
		t.Errorf("coverage = %g, want %g", got, want)
	}
	if got, want := unionShare(spans, "step", "a", "b"), 0.6; got != want {
		t.Errorf("unionShare(a,b) = %g, want %g", got, want)
	}
	if got := unionShare(spans, "step", "a.inner"); got != 0.1 {
		t.Errorf("unionShare(a.inner) = %g, want 0.1 (grandchildren count)", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0, 0)
	r.end(id)
	if id != -1 || r.snapshot() != nil {
		t.Errorf("nil recorder: id %d, spans %v", id, r.snapshot())
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("step", -1, 7, 0)
	child := rec.begin("core.run_batch", root, 7, 1)
	rec.end(child)
	rec.end(root)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, []tracedSpans{{Workload: "w", Spans: rec.snapshot()}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 { // process name + two spans
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[2]
	if ev["name"] != "core.run_batch" || ev["cat"] != "core" || ev["ph"] != "X" {
		t.Errorf("child event = %v", ev)
	}
	args := ev["args"].(map[string]any)
	if args["parent"] != float64(root) || args["op"] != float64(7) {
		t.Errorf("child args = %v, want parent %d and op 7", args, root)
	}
}
