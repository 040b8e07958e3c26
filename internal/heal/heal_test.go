package heal

import (
	"sync"
	"testing"
	"time"

	"avgpipe/internal/obs"
)

// fakeAverager is a scriptable recovery surface.
type fakeAverager struct {
	mu       sync.Mutex
	live     []bool
	detached []int
	deadline time.Duration
	latest   int
	last     []int
	p99      float64
}

func newFake(n int) *fakeAverager {
	f := &fakeAverager{live: make([]bool, n), latest: -1, last: make([]int, n)}
	for p := range f.live {
		f.live[p] = true
		f.last[p] = -1
	}
	return f
}

func (f *fakeAverager) Live(p int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return p >= 0 && p < len(f.live) && f.live[p]
}

func (f *fakeAverager) LiveReplicas() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, l := range f.live {
		if l {
			n++
		}
	}
	return n
}

func (f *fakeAverager) Detach(p int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p >= 0 && p < len(f.live) && f.live[p] {
		f.live[p] = false
		f.detached = append(f.detached, p)
	}
}

func (f *fakeAverager) SetRoundDeadline(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deadline = d
}

func (f *fakeAverager) RoundProgress() (int, []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.latest, append([]int(nil), f.last...)
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

func newSupervisor(t *testing.T, fake *fakeAverager, cfg Config) (*Supervisor, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Registry = reg
	// A long interval so test passes are driven by Kick, not the ticker.
	if cfg.Interval == 0 {
		cfg.Interval = time.Hour
	}
	s := New(fake, reg.Events(), cfg)
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

func TestSupervisorDetachesReplicaFallingBehind(t *testing.T) {
	fake := newFake(3)
	s, _ := newSupervisor(t, fake, Config{Self: 0, MissedRounds: 3})
	fake.mu.Lock()
	fake.latest = 10
	fake.last = []int{10, 7, 8}
	fake.mu.Unlock()
	s.Kick()
	if got := fake.detachedList(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("detached %v, want [1] (replica 2 is only 2 behind)", got)
	}
	// Self is never detached for falling behind, even when silent.
	fake.mu.Lock()
	fake.last[0] = 0
	fake.mu.Unlock()
	s.Kick()
	if got := fake.detachedList(); len(got) != 1 {
		t.Fatalf("detached %v — the supervisor detached its own replica", got)
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
	s.Kick()
	if got := fake.currentDeadline(); got != 200*time.Millisecond {
		t.Fatalf("first retune set %v, want 200ms", got)
	}
	// A wiggle inside the hysteresis band must not retune.
	fake.mu.Lock()
	fake.p99 = 0.055 // → 220ms, a 10% change
	fake.mu.Unlock()
	s.Kick()
	if got := fake.currentDeadline(); got != 200*time.Millisecond {
		t.Fatalf("deadline %v retuned inside the hysteresis band", got)
	}
	// A real shift retunes; the clamp bounds it.
	fake.mu.Lock()
	fake.p99 = 10 // → 40s, clamped to MaxDeadline
	fake.mu.Unlock()
	s.Kick()
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
