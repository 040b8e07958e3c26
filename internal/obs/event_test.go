package obs

import (
	"sync"
	"testing"
)

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.Emit(Event{Type: "e", Round: i})
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", l.Dropped())
	}
	peeked := l.Peek()
	got := l.Drain()
	if len(got) != 3 || got[0].Round != 2 || got[2].Round != 4 {
		t.Fatalf("drain = %+v, want rounds 2..4", got)
	}
	if len(peeked) != 3 || peeked[0].Round != got[0].Round {
		t.Fatalf("peek = %+v, want same events as drain", peeked)
	}
	if l.Drain() != nil || l.Len() != 0 {
		t.Fatal("drain did not empty the ring")
	}
	// Timestamps are stamped on emit when the caller leaves them zero.
	l.Emit(Event{Type: "stamped"})
	if ev := l.Drain(); ev[0].TimeUnixNano == 0 {
		t.Fatal("zero timestamp not stamped")
	}
}

func TestEventLogSinkAndNil(t *testing.T) {
	var nilLog *EventLog
	nilLog.Emit(Event{Type: "x"}) // must not panic
	if nilLog.Drain() != nil || nilLog.Peek() != nil || nilLog.Len() != 0 {
		t.Fatal("nil log not inert")
	}

	l := NewEventLog(0)
	var sunk []Event
	l.AddSink(func(e Event) { sunk = append(sunk, e) })
	l.Emit(Event{Type: "a"})
	l.Emit(Event{Type: "b"})
	if len(sunk) != 2 || sunk[0].Type != "a" || sunk[1].Type != "b" {
		t.Fatalf("sink saw %+v", sunk)
	}
}

// TestRegistryEvents: the registry lazily owns one event log, and the
// discard registry's log swallows everything (the zero-overhead path).
func TestRegistryEvents(t *testing.T) {
	reg := NewRegistry()
	if reg.Events() != reg.Events() {
		t.Fatal("Events() is not stable")
	}
	reg.Events().Emit(Event{Type: "x"})
	if reg.Events().Len() != 1 {
		t.Fatal("event lost")
	}
	Discard().Events().Emit(Event{Type: "x"})
	if Discard().Events().Len() != 0 {
		t.Fatal("discard registry buffered an event")
	}
}

func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Emit(Event{Type: "c", Round: i})
				l.Peek()
			}
		}()
	}
	wg.Wait()
	if l.Len()+int(l.Dropped()) != 800 {
		t.Fatalf("buffered %d + dropped %d != 800", l.Len(), l.Dropped())
	}
}

func TestEventLogAddSinkFansOut(t *testing.T) {
	l := NewEventLog(4)
	var a, b []string
	l.AddSink(func(e Event) { a = append(a, e.Type) })
	l.Emit(Event{Type: "first"})
	l.AddSink(func(e Event) { b = append(b, e.Type) })
	l.Emit(Event{Type: "second"})
	if len(a) != 2 || a[0] != "first" || a[1] != "second" {
		t.Fatalf("first sink saw %v", a)
	}
	if len(b) != 1 || b[0] != "second" {
		t.Fatalf("second sink saw %v", b)
	}
}
