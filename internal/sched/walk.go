package sched

import (
	"errors"
	"fmt"
	"strings"
)

// ErrDeadlock reports per-GPU op orders that form a cross-stage
// dependency cycle: ops remain, but none has its input. Only
// Walker.Run returns it, so a schedule rejected for any other reason is
// never mistaken for a deadlock.
var ErrDeadlock = errors.New("schedule deadlock")

// EventKind says what an Event carries: nothing (NoEvent), a stage's
// forward output (Act), or its input gradient (Grad).
type EventKind uint8

// Event kinds.
const (
	NoEvent EventKind = iota
	Act
	Grad
)

// Event is a tensor one op produces and another consumes: the
// activation or the gradient of micro-batch Micro at stage Stage.
type Event struct {
	Kind  EventKind
	Stage int
	Micro int
}

// Index places e in a dense table over k stages and micros 0..micros−1.
func (e Event) Index(k, micros int) int {
	return ((int(e.Kind)-1)*k+e.Stage)*micros + e.Micro
}

// Remote returns the stage e is shipped to over a link: activations go
// downstream, gradients upstream; the last stage's activation and stage
// 0's gradient stay local (ok is false).
func (e Event) Remote(k int) (to int, ok bool) {
	if e.Kind == Act {
		return e.Stage + 1, e.Stage < k-1
	}
	return e.Stage - 1, e.Stage > 0
}

// Deps is the op-dependency rule, the one place that decides what an op
// waits for: op o on stage s of k consumes event in and produces event
// out (either may be NoEvent).
//
//   - Fwd(s,m) consumes act(s−1,m) when s > 0, and produces act(s,m).
//   - Bwd/BwdIn(s,m) consumes grad(s+1,m), or act(s,m) on the last
//     stage (its local loss), and produces grad(s,m).
//   - BwdW(s,m) consumes grad(s,m).
//
// An op is ready once its stage has run every op before it and its
// input has been produced.
func (o Op) Deps(s, k int) (in, out Event) {
	m := o.Micro
	switch o.Kind {
	case Fwd:
		if s > 0 {
			in = Event{Act, s - 1, m}
		}
		return in, Event{Act, s, m}
	case BwdW:
		return Event{Grad, s, m}, Event{}
	}
	if s == k-1 {
		return Event{Act, s, m}, Event{Grad, s, m}
	}
	return Event{Grad, s + 1, m}, Event{Grad, s, m}
}

// Walker steps a schedule through the dependency rule, holding each
// GPU's position in its op list and the set of events produced so far.
// It calls Deps with each op's stage under the schedule's placement
// (Schedule.Stage), so events live in stage space. Analyze, the
// simulator and the runtime decide when an op may run through it.
type Walker struct {
	s      *Schedule
	micros int
	pos    []int
	done   []bool // by Event.Index
	left   int
}

// NewWalker returns a walker at the start of s.
func NewWalker(s *Schedule) *Walker {
	k := len(s.PerGPU)
	w := &Walker{s: s, pos: make([]int, k)}
	for _, ops := range s.PerGPU {
		for _, op := range ops {
			w.micros = max(w.micros, op.Micro+1)
		}
	}
	w.done = make([]bool, 2*k*w.micros)
	w.Reset()
	return w
}

// Reset rewinds the walk to the start of the schedule.
func (w *Walker) Reset() {
	clear(w.pos)
	clear(w.done)
	w.left = 0
	for _, ops := range w.s.PerGPU {
		w.left += len(ops)
	}
}

// Pos returns the index of GPU g's next op (its op count once done).
func (w *Walker) Pos(g int) int { return w.pos[g] }

// Left returns the number of ops not yet retired.
func (w *Walker) Left() int { return w.left }

// Next returns GPU g's next op and whether it is ready: there is one,
// and its input has been produced.
func (w *Walker) Next(g int) (Op, bool) {
	ops := w.s.PerGPU[g]
	if w.pos[g] == len(ops) {
		return Op{}, false
	}
	op := ops[w.pos[g]]
	in, _ := op.Deps(w.s.Stage(g, op.Micro), len(w.pos))
	return op, in.Kind == NoEvent || w.done[in.Index(len(w.pos), w.micros)]
}

// Retire records that GPU g ran its next op, producing its output.
func (w *Walker) Retire(g int) {
	k := len(w.pos)
	op := w.s.PerGPU[g][w.pos[g]]
	if _, out := op.Deps(w.s.Stage(g, op.Micro), k); out.Kind != NoEvent {
		w.done[out.Index(k, w.micros)] = true
	}
	w.pos[g]++
	w.left--
}

// Run walks the rest of the schedule: each step hands pick the GPUs
// whose next op is ready, in ascending order, and retires the op of the
// one it returns. When ops remain but none is ready, it returns an
// error wrapping ErrDeadlock that names every stuck op.
func (w *Walker) Run(pick func(ready []int) int) error {
	ready := make([]int, 0, len(w.pos))
	for w.left > 0 {
		ready = ready[:0]
		for g := range w.pos {
			if _, ok := w.Next(g); ok {
				ready = append(ready, g)
			}
		}
		if len(ready) == 0 {
			var stuck []string
			for g, ops := range w.s.PerGPU {
				if w.pos[g] < len(ops) {
					stuck = append(stuck, fmt.Sprintf("GPU %d waits on %s", g, ops[w.pos[g]]))
				}
			}
			return fmt.Errorf("sched %s: %w: %s", w.s.Name, ErrDeadlock, strings.Join(stuck, "; "))
		}
		w.Retire(pick(ready))
	}
	return nil
}
