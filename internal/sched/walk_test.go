package sched

import (
	"errors"
	"testing"
)

// TestDepsRule pins the op-dependency rule for every kind on the first,
// a middle and the last stage of pipelines of depth 1, 2 and 3.
func TestDepsRule(t *testing.T) {
	const m = 5
	act := func(s int) Event { return Event{Act, s, m} }
	grad := func(s int) Event { return Event{Grad, s, m} }
	none := Event{}
	cases := []struct {
		k, s    int
		kind    Kind
		in, out Event
	}{
		// K=1: stage 0 is first and last; its loss is local.
		{1, 0, Fwd, none, act(0)},
		{1, 0, Bwd, act(0), grad(0)},
		{1, 0, BwdIn, act(0), grad(0)},
		{1, 0, BwdW, grad(0), none},
		// K=2.
		{2, 0, Fwd, none, act(0)},
		{2, 0, Bwd, grad(1), grad(0)},
		{2, 0, BwdIn, grad(1), grad(0)},
		{2, 0, BwdW, grad(0), none},
		{2, 1, Fwd, act(0), act(1)},
		{2, 1, Bwd, act(1), grad(1)},
		{2, 1, BwdIn, act(1), grad(1)},
		{2, 1, BwdW, grad(1), none},
		// K=3: first, middle, last.
		{3, 0, Fwd, none, act(0)},
		{3, 0, Bwd, grad(1), grad(0)},
		{3, 0, BwdIn, grad(1), grad(0)},
		{3, 0, BwdW, grad(0), none},
		{3, 1, Fwd, act(0), act(1)},
		{3, 1, Bwd, grad(2), grad(1)},
		{3, 1, BwdIn, grad(2), grad(1)},
		{3, 1, BwdW, grad(1), none},
		{3, 2, Fwd, act(1), act(2)},
		{3, 2, Bwd, act(2), grad(2)},
		{3, 2, BwdIn, act(2), grad(2)},
		{3, 2, BwdW, grad(2), none},
	}
	for _, c := range cases {
		in, out := Op{c.kind, m}.Deps(c.s, c.k)
		if in != c.in || out != c.out {
			t.Errorf("K=%d stage %d %s: Deps = (%v, %v), want (%v, %v)", c.k, c.s, c.kind, in, out, c.in, c.out)
		}
	}
}

// TestEventRemote: an activation ships downstream and a gradient
// upstream, except at the pipeline's ends.
func TestEventRemote(t *testing.T) {
	for _, c := range []struct {
		e      Event
		k, to  int
		remote bool
	}{
		{Event{Act, 0, 0}, 2, 1, true},
		{Event{Act, 1, 0}, 2, 0, false},
		{Event{Grad, 1, 0}, 2, 0, true},
		{Event{Grad, 0, 0}, 2, 0, false},
		{Event{Act, 0, 0}, 1, 0, false},
	} {
		to, ok := c.e.Remote(c.k)
		if ok != c.remote || (ok && to != c.to) {
			t.Errorf("%v.Remote(%d) = (%d, %v), want (%d, %v)", c.e, c.k, to, ok, c.to, c.remote)
		}
	}
}

// TestWalkerDeadlockAndReset: only a dependency cycle is ErrDeadlock,
// and a reset walker replays the schedule from the start.
func TestWalkerDeadlockAndReset(t *testing.T) {
	dead := &Schedule{Name: "inverted", PerGPU: [][]Op{
		{{Fwd, 0}, {Bwd, 0}, {Fwd, 1}, {Bwd, 1}},
		{{Fwd, 0}, {Fwd, 1}, {Bwd, 0}, {Bwd, 1}},
	}}
	_, err := Analyze(dead)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cross-stage cycle: got %v, want ErrDeadlock", err)
	}
	mismatch := &Schedule{Name: "mismatch", PerGPU: [][]Op{
		{{Fwd, 0}, {Bwd, 0}},
		{{Fwd, 1}, {Bwd, 1}},
	}}
	if _, err := Analyze(mismatch); err == nil || errors.Is(err, ErrDeadlock) {
		t.Fatalf("micro-set mismatch: got %v, want a non-deadlock error", err)
	}

	w := NewWalker(SplitBackward(OneFOneB(3, 4, 1)))
	first := func(ready []int) int { return ready[0] }
	for pass := 0; pass < 2; pass++ {
		if err := w.Run(first); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if w.Left() != 0 {
			t.Fatalf("pass %d: %d ops left", pass, w.Left())
		}
		w.Reset()
		if w.Left() != 3*4*3 || w.Pos(2) != 0 {
			t.Fatalf("reset walker: %d ops left, stage 2 at %d", w.Left(), w.Pos(2))
		}
		if _, ok := w.Next(1); ok {
			t.Fatal("reset walker: stage 1's first forward ready before stage 0's")
		}
	}
}
