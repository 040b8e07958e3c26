// Package heal closes the loop from health events to automatic
// recovery: a supervisor reacts to the registry's health events and runs
// its round checks on the averager's reference loop, after each frame the
// loop handles. It drives the recovery seams the runtime already exposes
// — Detach for replicas that stall, fall behind, or lose their mesh
// connection for good, and SetRoundDeadline retuned from observed round
// latency — so a faulty replica degrades the job instead of wedging it,
// without operator input. It keeps no clock, timer or goroutine of its
// own.
package heal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"avgpipe/internal/obs"
)

// Averager is the recovery surface the supervisor drives. Implemented
// by *core.Averager.
type Averager interface {
	// Live reports whether replica p currently participates in rounds.
	Live(p int) bool
	// Detach removes replica p from elastic averaging.
	Detach(p int)
	// DetachLagging detaches, in one step, every live replica other than
	// self whose newest update is missed or more rounds behind the newest
	// any replica submitted, counted from its join round, and returns
	// them.
	DetachLagging(missed, self int) []int
	// SetRoundPass installs fn to run after each frame the reference
	// loop handles (nil removes it).
	SetRoundPass(fn func())
	// SetRoundDeadline bounds how long an incomplete round waits.
	SetRoundDeadline(d time.Duration)
	// RoundLatencyQuantile reports the q-quantile of round latency in
	// seconds (0 before any round closed).
	RoundLatencyQuantile(q float64) float64
}

// Defaults for the zero-valued Config fields.
const (
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
	cfg     Config
	avg     Averager
	events  *obs.EventLog
	stopped atomic.Bool

	mu       sync.Mutex
	deadline time.Duration
	counters map[string]*obs.Counter
}

// New builds a supervisor over avg, reacting to events (typically the
// registry's event log — the supervisor adds a sink, it never drains,
// so the telemetry publisher keeps seeing every event too). Call Start
// to begin supervision.
func New(avg Averager, events *obs.EventLog, cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	return &Supervisor{cfg: cfg, avg: avg, events: events, deadline: cfg.Deadline,
		counters: make(map[string]*obs.Counter)}
}

// Start subscribes to the event stream and installs the round checks on
// the averager's reference loop. Call it once; Stop ends supervision.
func (s *Supervisor) Start() {
	s.events.AddSink(s.onEvent)
	s.avg.SetRoundPass(s.pass)
}

// Stop ends supervision: it removes the round checks from the reference
// loop and makes the event sink, which the log cannot remove, inert. Once
// Stop returns, no new pass starts.
func (s *Supervisor) Stop() {
	s.stopped.Store(true)
	s.avg.SetRoundPass(nil)
}

// onEvent reacts synchronously to health events. It must stay fast and
// re-entrant: Detach itself emits events, which re-enter here.
func (s *Supervisor) onEvent(e obs.Event) {
	var action, detail string
	switch {
	case e.Type == obs.EventWatchdogStall:
		// A wedged pipeline: its replica cannot produce updates, so take
		// it out of the averaging set before it drags every round to the
		// deadline.
		action, detail = ActionDetachStall, fmt.Sprintf("watchdog stalled replica %d", e.Replica)
	case e.Type == obs.EventReconnectAttempt && int(e.Value) >= s.cfg.ReconnectFailures:
		// The mesh layer keeps redialing in the background; once a peer
		// has resisted a streak of attempts, stop waiting for it. A later
		// successful reconnect re-admits it via its rejoin announcement.
		action, detail = ActionDetachConn,
			fmt.Sprintf("replica %d unreachable after %d reconnect attempts", e.Replica, int(e.Value))
	case e.Type == obs.EventReplicaDisconnect:
		// The redial budget was exhausted: the connection is permanently
		// dead, the peer is gone.
		action, detail = ActionDetachConn, fmt.Sprintf("connection to replica %d is dead", e.Replica)
	default:
		return
	}
	if !s.stopped.Load() && e.Replica >= 0 && s.avg.Live(e.Replica) {
		s.act(action, e.Replica, detail)
		s.avg.Detach(e.Replica)
	}
}

// pass runs the round checks after each frame the reference loop handles.
// It detaches the live replicas MissedRounds behind the newest submitted
// round — a crashed or partitioned replica whose connection still looks
// healthy — and retunes the round deadline. No clock is needed: a lag
// grows only when an update arrives, and the latency p99 moves only when
// a round closes on quorum, both inside a frame.
func (s *Supervisor) pass() {
	if s.stopped.Load() {
		return
	}
	for _, p := range s.avg.DetachLagging(s.cfg.MissedRounds, s.cfg.Self) {
		s.act(ActionDetachBehind, p,
			fmt.Sprintf("replica %d is %d or more rounds behind", p, s.cfg.MissedRounds))
	}
	s.retuneDeadline()
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
