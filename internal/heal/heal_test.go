package heal

import (
	"context"
	"sync"
	"testing"
	"time"

	"avgpipe/internal/core"
	"avgpipe/internal/obs"
)

// fakeAverager is a scriptable recovery surface. It keeps the round pass
// the supervisor registers, and a test runs it synchronously.
type fakeAverager struct {
	mu       sync.Mutex
	live     []bool
	detached []int
	deadline time.Duration
	p99      float64
	pass     func()
}

func newFake(n int) *fakeAverager {
	f := &fakeAverager{live: make([]bool, n)}
	for p := range f.live {
		f.live[p] = true
	}
	return f
}

func (f *fakeAverager) Live(p int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return p >= 0 && p < len(f.live) && f.live[p]
}

func (f *fakeAverager) Detach(p int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p >= 0 && p < len(f.live) && f.live[p] {
		f.live[p] = false
		f.detached = append(f.detached, p)
	}
}

// DetachLagging finds no one: the lag rule is the averager's, and the
// tests of it run on a real one.
func (f *fakeAverager) DetachLagging(missed, self int) []int { return nil }

func (f *fakeAverager) SetRoundPass(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pass = fn
}

// runPass runs the registered round pass, as the reference loop does after
// a frame.
func (f *fakeAverager) runPass() {
	f.mu.Lock()
	pass := f.pass
	f.mu.Unlock()
	pass()
}

func (f *fakeAverager) SetRoundDeadline(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deadline = d
}

func (f *fakeAverager) RoundLatencyQuantile(q float64) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.p99
}

func (f *fakeAverager) detachedList() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.detached...)
}

func (f *fakeAverager) currentDeadline() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.deadline
}

func newSupervisor(t *testing.T, avg Averager, cfg Config) (*Supervisor, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Registry = reg
	s := New(avg, reg.Events(), cfg)
	s.Start()
	t.Cleanup(s.Stop)
	return s, reg
}

func TestSupervisorDetachesOnWatchdogStall(t *testing.T) {
	fake := newFake(3)
	_, reg := newSupervisor(t, fake, Config{Self: 0})
	reg.Events().Emit(obs.Event{Type: obs.EventWatchdogStall, Replica: 1})
	if got := fake.detachedList(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("detached %v, want [1]", got)
	}
	// A second stall of the now-dead replica is a no-op.
	reg.Events().Emit(obs.Event{Type: obs.EventWatchdogStall, Replica: 1})
	if got := fake.detachedList(); len(got) != 1 {
		t.Fatalf("re-detached a dead replica: %v", got)
	}
	if got := reg.Counter("avgpipe_heal_actions_total", "", "action", ActionDetachStall).Value(); got != 1 {
		t.Fatalf("heal_actions_total{action=%s} = %v, want 1", ActionDetachStall, got)
	}
	// Every action leaves a heal_action event in the log.
	found := false
	for _, e := range reg.Events().Peek() {
		if e.Type == obs.EventHealAction && e.Replica == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no heal_action event recorded for the detach")
	}
}

func TestSupervisorDetachesOnReconnectStreak(t *testing.T) {
	fake := newFake(2)
	_, reg := newSupervisor(t, fake, Config{Self: 0, ReconnectFailures: 3})
	// Below the threshold: still waiting for the link to heal.
	reg.Events().Emit(obs.Event{Type: obs.EventReconnectAttempt, Replica: 1, Value: 2})
	if got := fake.detachedList(); len(got) != 0 {
		t.Fatalf("detached %v before the failure threshold", got)
	}
	reg.Events().Emit(obs.Event{Type: obs.EventReconnectAttempt, Replica: 1, Value: 3})
	if got := fake.detachedList(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("detached %v, want [1]", got)
	}
}

func TestSupervisorDetachesExhaustedConnection(t *testing.T) {
	fake := newFake(2)
	_, reg := newSupervisor(t, fake, Config{Self: 0})
	reg.Events().Emit(obs.Event{Type: obs.EventReplicaDisconnect, Replica: 1})
	if got := fake.detachedList(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("detached %v, want [1]", got)
	}
}

func TestSupervisorRetunesDeadlineWithHysteresis(t *testing.T) {
	fake := newFake(2)
	s, reg := newSupervisor(t, fake, Config{
		Self: 0, DeadlineMultiple: 4, Hysteresis: 0.25,
		MinDeadline: 10 * time.Millisecond, MaxDeadline: time.Second,
	})
	fake.mu.Lock()
	fake.p99 = 0.05 // p99 50ms → deadline 200ms
	fake.mu.Unlock()
	fake.runPass()
	if got := fake.currentDeadline(); got != 200*time.Millisecond {
		t.Fatalf("first retune set %v, want 200ms", got)
	}
	// A wiggle inside the hysteresis band must not retune.
	fake.mu.Lock()
	fake.p99 = 0.055 // → 220ms, a 10% change
	fake.mu.Unlock()
	fake.runPass()
	if got := fake.currentDeadline(); got != 200*time.Millisecond {
		t.Fatalf("deadline %v retuned inside the hysteresis band", got)
	}
	// A real shift retunes; the clamp bounds it.
	fake.mu.Lock()
	fake.p99 = 10 // → 40s, clamped to MaxDeadline
	fake.mu.Unlock()
	fake.runPass()
	if got := fake.currentDeadline(); got != time.Second {
		t.Fatalf("clamped retune set %v, want 1s", got)
	}
	if got := reg.Counter("avgpipe_heal_actions_total", "", "action", ActionRetune).Value(); got != 2 {
		t.Fatalf("retune count %v, want 2", got)
	}
	retuned := 0
	for _, e := range reg.Events().Peek() {
		if e.Type == obs.EventDeadlineRetuned {
			retuned++
		}
	}
	if retuned != 2 {
		t.Fatalf("deadline_retuned events %d, want 2", retuned)
	}
	if got := s.Deadline(); got != time.Second {
		t.Fatalf("Deadline() = %v, want 1s", got)
	}
}

func TestSupervisorStopIsInert(t *testing.T) {
	fake := newFake(2)
	s, reg := newSupervisor(t, fake, Config{Self: 0})
	s.Stop()
	if fake.pass != nil {
		t.Fatal("Stop left the round pass installed")
	}
	reg.Events().Emit(obs.Event{Type: obs.EventWatchdogStall, Replica: 1})
	if got := fake.detachedList(); len(got) != 0 {
		t.Fatalf("a stopped supervisor detached %v", got)
	}
}

// lockstep is a real averager whose reference loop hands each supervisor
// pass to the test: after a frame's pass the loop waits until the test
// takes it, so the test reads the pass's effect without polling.
type lockstep struct {
	*core.Averager
	reg    *obs.Registry
	passed chan struct{}
}

func newLockstep(t *testing.T, n int) lockstep {
	reg := obs.NewRegistry()
	a := lockstep{core.NewAveragerObs(n, smallParams(), reg), reg, make(chan struct{})}
	t.Cleanup(a.Close)
	return a
}

func (a lockstep) SetRoundPass(fn func()) {
	if fn != nil {
		pass := fn
		fn = func() { pass(); a.passed <- struct{}{} }
	}
	a.Averager.SetRoundPass(fn)
}

// submit sends replica p's update for each round in rounds and waits for
// the pass after each.
func (a lockstep) submit(t *testing.T, p int, rounds ...int) {
	t.Helper()
	for _, r := range rounds {
		if err := a.SubmitContext(context.Background(), p, r, smallParams()); err != nil {
			t.Fatal(err)
		}
		<-a.passed
	}
}

func span(from, to int) []int {
	var rs []int
	for r := from; r <= to; r++ {
		rs = append(rs, r)
	}
	return rs
}

func behind(reg *obs.Registry) float64 {
	return reg.Counter("avgpipe_heal_actions_total", "", "action", ActionDetachBehind).Value()
}

// The lag rule on a real averager: a replica MissedRounds behind the
// newest submitted round is detached, one a round less behind is kept, and
// the supervisor's own replica is never detached.
func TestSupervisorDetachesReplicaFallingBehind(t *testing.T) {
	a := newLockstep(t, 3)
	_, reg := newSupervisor(t, a, Config{Self: 0, MissedRounds: 3})
	for r := range 11 { // replica 1 stops after round 7, replica 2 after 8
		if r <= 7 {
			a.submit(t, 1, r)
		}
		if r <= 8 {
			a.submit(t, 2, r)
		}
		a.submit(t, 0, r)
	}
	if a.Live(1) || !a.Live(2) || behind(reg) != 1 {
		t.Fatalf("at round 10: live 1 %v, live 2 %v, %v lag detaches; want replica 1 (3 behind) out, replica 2 (2 behind) in, 1 detach",
			a.Live(1), a.Live(2), behind(reg))
	}
	a.submit(t, 2, span(9, 13)...) // Self falls 3 behind
	if !a.Live(0) || behind(reg) != 1 {
		t.Fatalf("the supervisor detached its own replica: live %v, %v lag detaches", a.Live(0), behind(reg))
	}
}

// A replica detached for lag and re-admitted is judged from its join
// round, not from its progress before the detach: the survivor reaches
// round 18, the replica rejoins from 19, and it stays live until the
// newest round is 18+MissedRounds without its update.
func TestSupervisorJudgesRejoinFromJoinRound(t *testing.T) {
	const missed = 3
	a := newLockstep(t, 2)
	_, reg := newSupervisor(t, a, Config{Self: 0, MissedRounds: missed})
	a.submit(t, 1, span(0, 8)...)
	a.submit(t, 0, span(0, 18)...)
	if a.Live(1) || behind(reg) != 1 {
		t.Fatalf("the silent replica was not detached once: live %v, %v lag detaches", a.Live(1), behind(reg))
	}
	a.Rejoin(1, smallParams())
	if ev := a.reg.Events().Peek(); ev[len(ev)-1].Type != obs.EventReplicaRejoin || ev[len(ev)-1].Round != 19 {
		t.Fatalf("last averager event %+v, want the rejoin from round 19", ev[len(ev)-1])
	}
	for r := 19; r < 18+missed; r++ {
		a.submit(t, 0, r)
		if !a.Live(1) || behind(reg) != 1 {
			t.Fatalf("round %d: the rejoined replica was detached %d rounds after its join round 19", r, r-18)
		}
	}
	a.submit(t, 0, 18+missed)
	if a.Live(1) || behind(reg) != 2 {
		t.Fatalf("round %d: live %v, %v lag detaches; want the rejoined replica detached once more", 18+missed, a.Live(1), behind(reg))
	}
}
