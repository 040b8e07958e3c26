package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// A stall in the generator must not let the requests behind it off the
// hook: they stay due on schedule, are sent as soon as the pacer is
// back, and their latency counts from the due time.
func TestOpenLoopDueTimeUnderStall(t *testing.T) {
	const (
		n        = 100
		interval = time.Millisecond
		stallAt  = 40
		stall    = 30 * time.Millisecond
	)
	var slept atomic.Int64
	sleep := func(d time.Duration) {
		if slept.Add(1) == stallAt {
			d += stall // the pacer oversleeps once
		}
		time.Sleep(d)
	}
	as := openLoop(n, interval, n, sleep, func(int) bool { return true })
	if len(as) != n {
		t.Fatalf("got %d arrivals, want %d", len(as), n)
	}
	var late int
	for i, a := range as {
		if a.Due != int64(i)*int64(interval) {
			t.Fatalf("arrival %d due at %d, want %d: the schedule must not shift", i, a.Due, int64(i)*int64(interval))
		}
		if !a.OK {
			t.Errorf("arrival %d not answered", i)
		}
		if a.latenessMS() > 20 {
			late++
			if a.latencyMS() < a.latenessMS() {
				t.Errorf("arrival %d: latency %.2f ms is less than its lateness %.2f ms", i, a.latencyMS(), a.latenessMS())
			}
			if a.serviceMS() > 10 {
				t.Errorf("arrival %d: service time %.2f ms; the stall belongs to lateness, not service", i, a.serviceMS())
			}
		}
	}
	// The stalled send and the ~stall/interval requests that came due
	// during it are late; nobody after the pacer caught up is.
	if late < 5 || late > int(stall/interval)+5 {
		t.Errorf("%d arrivals were more than 20 ms late, want roughly %d", late, int(stall/interval)-20)
	}
	s := summarizeLoad(as)
	if p := percentile(s.lateness, 99); p < 20 {
		t.Errorf("lateness p99 = %.2f ms: the stall must show in the generator's lateness", p)
	}
	if s.attempted != n || s.failed != 0 {
		t.Errorf("attempted %d failed %d, want %d and 0", s.attempted, s.failed, n)
	}
}

// Failed and refused requests count against attempted and carry no
// latency sample.
func TestOpenLoopFailureCounting(t *testing.T) {
	const n, backlog = 60, 4
	// The first `backlog` calls outlast the whole 6 ms schedule, so every
	// later arrival finds the backlog full; call 0 also fails.
	as := openLoop(n, 100*time.Microsecond, backlog, time.Sleep, func(i int) bool {
		time.Sleep(30 * time.Millisecond)
		return i != 0
	})
	s := summarizeLoad(as)
	refused := 0
	for _, a := range as {
		if a.Refused {
			refused++
		}
	}
	if refused != n-backlog {
		t.Errorf("%d refused, want %d", refused, n-backlog)
	}
	if s.attempted != n || s.failed != n-backlog+1 {
		t.Errorf("attempted %d failed %d, want %d and %d", s.attempted, s.failed, n, n-backlog+1)
	}
	if len(s.latency) != backlog-1 {
		t.Errorf("%d latency samples, want %d: only answered requests have one", len(s.latency), backlog-1)
	}
}
