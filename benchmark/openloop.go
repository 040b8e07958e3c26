package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one request of an open-loop run, all times in ns since the
// run's start. Latency is counted from Due, not Sent: when the
// generator or the server stalls, the requests behind the stall were
// still due on schedule and their callers were still waiting.
type arrival struct {
	Due, Sent, Done int64
	// OK is false for a request the server failed or the generator
	// refused (backlog full); both miss any latency limit.
	OK      bool
	Refused bool
}

func (a arrival) latencyMS() float64  { return ms(a.Done - a.Due) }
func (a arrival) serviceMS() float64  { return ms(a.Done - a.Sent) }
func (a arrival) latenessMS() float64 { return ms(a.Sent - a.Due) }

// openLoop sends n requests on a fixed schedule — request i is due at
// start + i·interval — from one pacing goroutine, whatever the server
// does: a late pacer does not skip or re-time requests, it sends the
// overdue ones at once. call(i) runs on its own goroutine and reports
// whether request i succeeded. At most maxInFlight requests are
// outstanding; an arrival beyond that is refused and counted failed.
// sleep is time.Sleep outside tests.
func openLoop(n int, interval time.Duration, maxInFlight int, sleep func(time.Duration), call func(i int) bool) []arrival {
	out := make([]arrival, n)
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		if d := due - time.Since(start); d > 0 {
			sleep(d)
		}
		sent := time.Since(start)
		out[i].Due, out[i].Sent = int64(due), int64(sent)
		if inFlight.Load() >= int64(maxInFlight) {
			out[i].Done, out[i].Refused = int64(sent), true
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok := call(i)
			out[i].Done, out[i].OK = int64(time.Since(start)), ok
			inFlight.Add(-1)
		}(i)
	}
	wg.Wait()
	return out
}

// loadSummary is what one open-loop phase reports.
type loadSummary struct {
	attempted, failed          int
	latency, service, lateness []float64 // ms, answered requests only
	wall                       time.Duration
}

func summarizeLoad(as []arrival) loadSummary {
	s := loadSummary{attempted: len(as)}
	for _, a := range as {
		s.wall = max(s.wall, time.Duration(a.Done))
		s.lateness = append(s.lateness, a.latenessMS())
		if !a.OK {
			s.failed++
			continue
		}
		s.latency = append(s.latency, a.latencyMS())
		s.service = append(s.service, a.serviceMS())
	}
	return s
}
