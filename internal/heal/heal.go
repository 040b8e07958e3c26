// Package heal closes the loop from health events to automatic
// recovery: a supervision loop subscribes to the registry's health
// events and the averager's live round metrics, and drives the
// recovery seams the runtime already exposes — Detach for replicas that
// stall, fall behind, or lose their mesh connection for good, and
// SetRoundDeadline retuned from observed round latency — so a faulty
// replica degrades the job instead of wedging it, without operator
// input.
package heal

import (
	"fmt"
	"sync"
	"time"

	"avgpipe/internal/obs"
)

// Averager is the recovery surface the supervisor drives. Implemented
// by *core.Averager.
type Averager interface {
	// Live reports whether replica p currently participates in rounds.
	Live(p int) bool
	// LiveReplicas counts the participating replicas.
	LiveReplicas() int
	// Detach removes replica p from elastic averaging.
	Detach(p int)
	// SetRoundDeadline bounds how long an incomplete round waits.
	SetRoundDeadline(d time.Duration)
	// RoundProgress reports the newest submitted round overall and per
	// replica (-1 before a replica's first update).
	RoundProgress() (latest int, last []int)
	// RoundLatencyQuantile reports the q-quantile of round latency in
	// seconds (0 before any round closed).
	RoundLatencyQuantile(q float64) float64
}

// Defaults for the zero-valued Config fields.
const (
	DefaultInterval          = 50 * time.Millisecond
	DefaultMissedRounds      = 3
	DefaultReconnectFailures = 5
	DefaultDeadlineMultiple  = 4.0
	DefaultHysteresis        = 0.25
)

// Supervisor action names: the "action" label of the
// avgpipe_heal_actions_total counter and the Detail of EventHealAction
// events.
const (
	ActionDetachStall  = "auto_detach_stall"
	ActionDetachBehind = "auto_detach_behind"
	ActionDetachConn   = "auto_detach_conn"
	ActionRetune       = "deadline_retune"
)

// Config tunes the supervisor. Zero values select the defaults above;
// MinDeadline/MaxDeadline of zero leave that bound off.
type Config struct {
	// Self is the local replica id, which the supervisor never
	// auto-detaches for falling behind (its own silence is visible to
	// peers, not to itself); -1 (or out of range) protects nobody.
	Self int
	// Interval paces the supervision loop.
	Interval time.Duration
	// MissedRounds is the detach threshold: a live replica whose newest
	// update is this many rounds behind the pack is considered gone.
	MissedRounds int
	// ReconnectFailures is the detach threshold for connection loss: a
	// peer whose broken connection has resisted this many consecutive
	// redial attempts is considered gone (it is re-admitted by its
	// rejoin announcement if the link heals later).
	ReconnectFailures int
	// DeadlineMultiple sets the adaptive round deadline to this multiple
	// of the observed round-latency p99.
	DeadlineMultiple float64
	// MinDeadline/MaxDeadline clamp the adaptive deadline.
	MinDeadline time.Duration
	MaxDeadline time.Duration
	// Hysteresis suppresses retunes smaller than this relative change,
	// so the deadline does not flap with every latency wiggle.
	Hysteresis float64
	// Deadline seeds the adaptive loop with the currently configured
	// round deadline (0 = none yet; the first observation sets it).
	Deadline time.Duration
	// Registry records the heal metrics (nil = obs.Default()).
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.MissedRounds <= 0 {
		c.MissedRounds = DefaultMissedRounds
	}
	if c.ReconnectFailures <= 0 {
		c.ReconnectFailures = DefaultReconnectFailures
	}
	if c.DeadlineMultiple <= 0 {
		c.DeadlineMultiple = DefaultDeadlineMultiple
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = DefaultHysteresis
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// Supervisor watches one process's health signals and drives recovery.
type Supervisor struct {
	cfg    Config
	avg    Averager
	events *obs.EventLog

	mu       sync.Mutex
	deadline time.Duration
	counters map[string]*obs.Counter
	started  bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	wake     chan chan struct{} // Kick's pass requests, closed once the pass ran
}

// New builds a supervisor over avg, reacting to events (typically the
// registry's event log — the supervisor adds a sink, it never drains,
// so the telemetry publisher keeps seeing every event too). Call Start
// to begin supervision.
func New(avg Averager, events *obs.EventLog, cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	return &Supervisor{
		cfg: cfg, avg: avg, events: events,
		deadline: cfg.Deadline,
		counters: make(map[string]*obs.Counter),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		wake:     make(chan chan struct{}),
	}
}

// Start subscribes to the event stream and launches the supervision
// loop. Call at most once; Stop ends supervision.
func (s *Supervisor) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.events.AddSink(s.onEvent)
	go s.loop()
}

// Stop ends the supervision loop. The event sink stays registered (the
// event log has no removal; a stopped supervisor's sink is inert).
func (s *Supervisor) Stop() {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	if started {
		<-s.done
	}
}

// Kick forces one immediate supervision pass and returns once that pass
// has run, so a test can check its effect without polling. It returns at
// once when the supervision loop is not running.
func (s *Supervisor) Kick() {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if !started {
		return
	}
	ran := make(chan struct{})
	select {
	case s.wake <- ran:
		<-ran
	case <-s.done:
	}
}

// onEvent reacts synchronously to health events. It must stay fast and
// re-entrant: Detach itself emits events, which re-enter here.
func (s *Supervisor) onEvent(e obs.Event) {
	select {
	case <-s.stop:
		return
	default:
	}
	switch e.Type {
	case obs.EventWatchdogStall:
		// A wedged pipeline: its replica cannot produce updates, so take
		// it out of the averaging set before it drags every round to the
		// deadline.
		if e.Replica >= 0 && s.avg.Live(e.Replica) {
			s.act(ActionDetachStall, e.Replica, fmt.Sprintf("watchdog stalled replica %d", e.Replica))
			s.avg.Detach(e.Replica)
		}
	case obs.EventReconnectAttempt:
		// The mesh layer keeps redialing in the background; once a peer
		// has resisted a streak of attempts, stop waiting for it. A later
		// successful reconnect re-admits it via its rejoin announcement.
		if int(e.Value) >= s.cfg.ReconnectFailures && e.Replica >= 0 && s.avg.Live(e.Replica) {
			s.act(ActionDetachConn, e.Replica,
				fmt.Sprintf("replica %d unreachable after %d reconnect attempts", e.Replica, int(e.Value)))
			s.avg.Detach(e.Replica)
		}
	case obs.EventReplicaDisconnect:
		// The redial budget was exhausted: the connection is permanently
		// dead, the peer is gone.
		if e.Replica >= 0 && s.avg.Live(e.Replica) {
			s.act(ActionDetachConn, e.Replica, fmt.Sprintf("connection to replica %d is dead", e.Replica))
			s.avg.Detach(e.Replica)
		}
	}
}

// loop runs the periodic checks: missed-round streaks and the adaptive
// round deadline.
func (s *Supervisor) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		var kicked chan struct{}
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		case kicked = <-s.wake:
		}
		s.checkRounds()
		s.retuneDeadline()
		if kicked != nil {
			close(kicked)
		}
	}
}

// checkRounds detaches live replicas that have fallen MissedRounds
// behind the newest submitted round — a crashed or partitioned replica
// whose connection still looks healthy.
func (s *Supervisor) checkRounds() {
	latest, last := s.avg.RoundProgress()
	if latest < 0 {
		return // no updates yet
	}
	for p, lr := range last {
		if p == s.cfg.Self || !s.avg.Live(p) {
			continue
		}
		if latest-lr >= s.cfg.MissedRounds {
			s.act(ActionDetachBehind, p,
				fmt.Sprintf("replica %d is %d rounds behind round %d", p, latest-lr, latest))
			s.avg.Detach(p)
		}
	}
}

// retuneDeadline adapts the round deadline to DeadlineMultiple × the
// observed round-latency p99, clamped to [MinDeadline, MaxDeadline],
// moving only when the change exceeds the hysteresis band.
func (s *Supervisor) retuneDeadline() {
	p99 := s.avg.RoundLatencyQuantile(0.99)
	if p99 <= 0 {
		return
	}
	want := time.Duration(s.cfg.DeadlineMultiple * p99 * float64(time.Second))
	if s.cfg.MinDeadline > 0 && want < s.cfg.MinDeadline {
		want = s.cfg.MinDeadline
	}
	if s.cfg.MaxDeadline > 0 && want > s.cfg.MaxDeadline {
		want = s.cfg.MaxDeadline
	}
	s.mu.Lock()
	cur := s.deadline
	retune := cur <= 0 || relChange(cur, want) > s.cfg.Hysteresis
	if retune {
		s.deadline = want
	}
	s.mu.Unlock()
	if !retune {
		return
	}
	s.avg.SetRoundDeadline(want)
	s.events.Emit(obs.Event{Type: obs.EventDeadlineRetuned, Replica: s.cfg.Self, Round: -1,
		Value: want.Seconds(), Detail: fmt.Sprintf("round deadline %v (p99 %.3fs)", want, p99)})
	s.count(ActionRetune)
}

// Deadline reports the supervisor's current adaptive round deadline (0
// until the first retune when none was seeded).
func (s *Supervisor) Deadline() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadline
}

func relChange(old, new time.Duration) float64 {
	d := new - old
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(old)
}

// act records one recovery action: the heal_actions_total counter and a
// heal_action event naming it.
func (s *Supervisor) act(action string, replica int, detail string) {
	s.count(action)
	s.events.Emit(obs.Event{Type: obs.EventHealAction, Replica: replica, Round: -1, Detail: detail})
}

func (s *Supervisor) count(action string) {
	s.mu.Lock()
	c := s.counters[action]
	if c == nil {
		c = s.cfg.Registry.Counter("avgpipe_heal_actions_total",
			"Recovery actions taken by the heal supervisor.", "action", action)
		s.counters[action] = c
	}
	s.mu.Unlock()
	c.Inc()
}
