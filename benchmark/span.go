package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented). Parent is the
// index of the span that caused it (-1 for a root); Op is the step or
// request id every span of one operation shares; Lane is the goroutine
// row it renders on in the Chrome trace.
type span struct {
	Name       string
	Parent     int
	Op         int
	Lane       int
	Start, End int64 // ns since the recorder's epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the same stepper runs traced and untraced.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id (-1 from a nil recorder).
func (r *recorder) begin(name string, parent, op, lane int) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Lane: lane, Start: t, End: t})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// add records an already-measured span (open-loop requests are timed by
// the load generator itself).
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// interval is a half-open [lo, hi) stretch of the trace clock.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, overlaps
// counted once.
func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	lo, hi := s[0].lo, s[0].hi
	for _, x := range s[1:] {
		if x.lo > hi {
			total += hi - lo
			lo, hi = x.lo, x.hi
			continue
		}
		if x.hi > hi {
			hi = x.hi
		}
	}
	return total + hi - lo
}

// selfTimes returns, per span, its duration minus the part of its
// interval its children cover. Children are clipped to the parent and
// overlapping children (parallel lanes) are counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], interval{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - unionLen(kids[i])
	}
	return self
}

// durationsByName groups span durations (ms) by span name.
func durationsByName(spans []span) map[string][]float64 {
	dur := map[string][]float64{}
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], ms(s.dur()))
	}
	return dur
}

// coverage reports how much of the root spans' wall clock the spans
// beneath them account for: 1 − Σ root self ÷ Σ root duration. The
// traced stepper must keep it within 2% of 1, or time is going
// somewhere no layer span names.
func coverage(spans []span, root string) float64 {
	self := selfTimes(spans)
	var wall, uncovered int64
	for i, s := range spans {
		if s.Name == root {
			wall += s.dur()
			uncovered += self[i]
		}
	}
	if wall == 0 {
		return 0
	}
	return 1 - float64(uncovered)/float64(wall)
}

// unionShare is the share of the named root spans' wall clock covered
// by the union of their descendants with the given names.
func unionShare(spans []span, root string, names ...string) float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	byOp := make(map[[2]int][]interval) // (op, root id) → intervals
	rootOf := func(i int) int {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return i
	}
	var wall int64
	for i, s := range spans {
		if s.Name == root && s.Parent < 0 {
			wall += s.dur()
		}
		if want[s.Name] {
			r := rootOf(i)
			if spans[r].Name == root {
				k := [2]int{s.Op, r}
				byOp[k] = append(byOp[k], interval{s.Start, s.End})
			}
		}
	}
	if wall == 0 {
		return 0
	}
	var covered int64
	for _, iv := range byOp {
		covered += unionLen(iv)
	}
	return float64(covered) / float64(wall)
}

// chromeEvent is one complete ("X") event of the Chrome trace format
// (chrome://tracing, ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace renders the spans of every traced run, one process
// row per workload and one thread row per lane.
func writeChromeTrace(w io.Writer, runs []tracedSpans) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	first := true
	emit := func(v any) error {
		if !first {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(v)
	}
	for pid, run := range runs {
		meta := map[string]any{"name": "process_name", "ph": "M", "pid": pid,
			"args": map[string]any{"name": run.Workload}}
		if err := emit(meta); err != nil {
			return err
		}
		self := selfTimes(run.Spans)
		for i, s := range run.Spans {
			ev := chromeEvent{Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
				TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, PID: pid, TID: s.Lane,
				Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "self_us": float64(self[i]) / 1e3}}
			if err := emit(ev); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// tracedSpans is one workload's traced run as it goes into the trace
// file.
type tracedSpans struct {
	Workload string
	Spans    []span
}

// layerOf is the module a span belongs to: the part of its name before
// the first dot ("core.run_batch" → "core").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

func (s span) String() string {
	return fmt.Sprintf("%s[op %d lane %d %d..%d]", s.Name, s.Op, s.Lane, s.Start, s.End)
}
