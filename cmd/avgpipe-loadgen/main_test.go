package main

import (
	"sync"
	"testing"
	"time"
)

// TestOpenLoopCountsStallsInLatency runs the open loop against a slow
// fire with one slot, so each request holds the pacer until the one
// before it finishes. Every request must still be sent, and each one's
// latency, timed from its due time, must cover the service time of the
// requests ahead of it.
func TestOpenLoopCountsStallsInLatency(t *testing.T) {
	const (
		n        = 5
		interval = time.Millisecond
		service  = 20 * time.Millisecond
	)
	var mu sync.Mutex
	latency := make(map[int]time.Duration)
	openLoop(n, interval, 1, func(i int, due time.Time) {
		time.Sleep(service)
		mu.Lock()
		latency[i] = time.Since(due)
		mu.Unlock()
	})
	if len(latency) != n {
		t.Fatalf("sent %d of %d requests", len(latency), n)
	}
	for i := 0; i < n; i++ {
		if floor := time.Duration(i+1)*service - time.Duration(i)*interval; latency[i] < floor {
			t.Errorf("request %d: latency %v, want at least %v (its own and the stalled requests' service)", i, latency[i], floor)
		}
	}
}
