package obs

import (
	"sync"
	"time"
)

// Health-event taxonomy. Events are the machine-readable counterpart of
// the metric families: discrete state changes a cluster controller (or
// the telemetry collector's straggler logic) reacts to, rather than
// continuously sampled values. The strings are the wire/JSONL `type`
// field and must stay stable.
const (
	// EventStragglerInjected: the fault injector slowed a stage op
	// (Replica = pipeline, Stage = stage, Value = delay seconds).
	EventStragglerInjected = "straggler_injected"
	// EventStragglerDetected: the collector's cross-replica comparison
	// flagged a replica as slow (Value = straggler score).
	EventStragglerDetected = "straggler_detected"
	// EventRoundDeadlineMissed: an averaging round expired before every
	// live replica's update arrived (Value = updates applied).
	EventRoundDeadlineMissed = "round_deadline_missed"
	// EventReplicaDetach / EventReplicaRejoin: averaging-set membership
	// changes (crash, clean shutdown, recovery).
	EventReplicaDetach = "replica_detach"
	EventReplicaRejoin = "replica_rejoin"
	// EventWatchdogStall: the pipeline watchdog killed a wedged batch.
	EventWatchdogStall = "watchdog_stall"
	// EventUpdateDropped / EventUpdateDelayed: the fault injector hit an
	// averaging update in flight.
	EventUpdateDropped = "update_dropped"
	EventUpdateDelayed = "update_delayed"
	// EventReplicaConnect / EventReplicaDisconnect: a replica's
	// telemetry session with the collector opened or closed.
	EventReplicaConnect    = "replica_connect"
	EventReplicaDisconnect = "replica_disconnect"
	// EventConnBroken: a mesh connection to Replica broke (poisoned TCP
	// stream, peer reset); the self-healing layer will try to re-dial.
	EventConnBroken = "conn_broken"
	// EventReconnectAttempt / EventReconnectSuccess: the self-healing
	// mesh layer re-dialing a broken peer connection (Replica = peer,
	// Value = attempt count; success carries the new session epoch).
	EventReconnectAttempt = "reconnect_attempt"
	EventReconnectSuccess = "reconnect_success"
	// EventDeadlineRetuned: the heal supervisor moved the averaging
	// round deadline (Value = new deadline seconds).
	EventDeadlineRetuned = "deadline_retuned"
	// EventHealAction: the heal supervisor took a recovery action
	// (Detail names it: auto_detach, deadline_retune, ...), the
	// machine-readable healing timeline avgpipe-obs renders.
	EventHealAction = "heal_action"
)

// Event is one structured health event. Replica is the pipeline /
// replica the event concerns (-1 when not replica-scoped), Round the
// averaging round (-1 when not round-scoped). Stage, Value, and Detail
// are type-specific.
type Event struct {
	TimeUnixNano int64   `json:"ts_unix_nano"`
	Type         string  `json:"type"`
	Replica      int     `json:"replica"`
	Round        int     `json:"round"`
	Stage        int     `json:"stage,omitempty"`
	Value        float64 `json:"value,omitempty"`
	Detail       string  `json:"detail,omitempty"`
}

// DefaultEventCapacity is the ring size of a Registry's event log.
const DefaultEventCapacity = 1024

// EventLog is a bounded ring of health events. Emit never blocks: when
// the ring is full the oldest event is dropped and counted. A publisher
// drains the ring periodically with Drain; an optional sink observes
// every event synchronously (the collector uses one to stream JSONL).
// All methods are nil-safe no-ops, like the metric types.
type EventLog struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of oldest event
	n       int // events currently buffered
	dropped uint64
	sinks   []func(Event)
	off     bool
}

// NewEventLog returns an event log buffering at most capacity events
// (<=0 means DefaultEventCapacity).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{buf: make([]Event, capacity)}
}

// Emit records e, stamping TimeUnixNano with the current time when the
// caller left it zero.
func (l *EventLog) Emit(e Event) {
	if l == nil || l.off {
		return
	}
	if e.TimeUnixNano == 0 {
		e.TimeUnixNano = time.Now().UnixNano()
	}
	l.mu.Lock()
	if l.n == len(l.buf) {
		l.start = (l.start + 1) % len(l.buf)
		l.n--
		l.dropped++
	}
	l.buf[(l.start+l.n)%len(l.buf)] = e
	l.n++
	sinks := l.sinks
	l.mu.Unlock()
	for _, sink := range sinks {
		sink(e)
	}
}

// Drain removes and returns every buffered event in emission order.
func (l *EventLog) Drain() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return nil
	}
	out := make([]Event, l.n)
	for i := range out {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	l.start, l.n = 0, 0
	return out
}

// Peek returns a copy of every buffered event in emission order
// without removing them (the collector's retained stream is read this
// way by /events while ingestion continues).
func (l *EventLog) Peek() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return nil
	}
	out := make([]Event, l.n)
	for i := range out {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return out
}

// Len reports the number of buffered (undrained) events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Dropped reports how many events were lost to ring overflow.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// AddSink installs fn alongside the existing sinks, so independent
// observers — the telemetry publisher and the heal supervisor — can
// each watch the same event stream without stealing it from the other.
// Sinks run synchronously on Emit in installation order.
func (l *EventLog) AddSink(fn func(Event)) {
	if l == nil || fn == nil {
		return
	}
	l.mu.Lock()
	// Copy-on-write: Emit reads l.sinks outside the lock after
	// snapshotting, so the slice it holds must never be appended to in
	// place.
	sinks := make([]func(Event), len(l.sinks)+1)
	copy(sinks, l.sinks)
	sinks[len(sinks)-1] = fn
	l.sinks = sinks
	l.mu.Unlock()
}
