package collect

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	netx "avgpipe/internal/net"
)

// TestIngestReadyAfterConcurrentSnapshots ingests the first snapshot of
// each of Expect replicas from Expect goroutines at once, many times
// over: once all have landed the collector must be ready — a racing
// ingest's stale "k/Expect replicas reporting" may not overwrite the
// ready state the last ingest set.
func TestIngestReadyAfterConcurrentSnapshots(t *testing.T) {
	const expect, reps = 4, 500
	for rep := 0; rep < reps; rep++ {
		c, err := NewCollector(CollectorConfig{Transport: netx.NewInProc(0), Expect: expect})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < expect; p++ {
			wg.Add(1)
			go func(blob []byte) {
				defer wg.Done()
				<-start
				c.ingestSnapshot(blob)
			}([]byte(fmt.Sprintf(`{"replica":%d}`, p)))
		}
		close(start)
		wg.Wait()
		ready, reason := c.Health().Ready()
		c.Close()
		if !ready {
			t.Fatalf("repetition %d: not ready after all %d replicas reported: %s", rep, expect, reason)
		}
	}
}

// stepSnapshot is a snapshot blob whose mean batch time is mean seconds.
func stepSnapshot(replica int, mean float64) []byte {
	return []byte(fmt.Sprintf(`{"replica":%d,"families":[{"name":"avgpipe_batch_seconds","type":"histogram","series":[{"sum":%g,"count":1}]}]}`,
		replica, mean))
}

// TestStragglerScoreLeavesReplicaOut: each replica is scored against the
// median of the others, so with two replicas one running 1.5x its peer
// scores 0.5 — against a median that counted it in, 1.5/1.25 − 1 = 0.2,
// under a 0.25 threshold.
func TestStragglerScoreLeavesReplicaOut(t *testing.T) {
	for _, tc := range []struct {
		means []float64
		want  map[int]float64
	}{
		{[]float64{0.2, 0.3}, map[int]float64{0: 0, 1: 0.5}},
		{[]float64{0.1, 0.1, 0.4}, map[int]float64{0: 0, 1: 0, 2: 3}},
		{[]float64{0.1, 0.2, 0.3, 0.6}, map[int]float64{0: 0, 1: 0, 2: 0.5, 3: 2}},
	} {
		c, err := NewCollector(CollectorConfig{Transport: netx.NewInProc(0), StragglerThreshold: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		for p, m := range tc.means {
			c.ingestSnapshot(stepSnapshot(p, m))
		}
		c.mu.Lock()
		scores := c.stragglerScoresLocked()
		c.mu.Unlock()
		c.Close()
		for p, want := range tc.want {
			if got := scores[p]; got < want-1e-9 || got > want+1e-9 {
				t.Errorf("means %v: replica %d scores %v, want %v", tc.means, p, got, want)
			}
		}
	}
}

// TestIngestStragglerEventWithSnapshot races the snapshots of a fast and
// a slow replica, many times over: once both are visible, so must be the
// straggler_detected event their ingest raised.
func TestIngestStragglerEventWithSnapshot(t *testing.T) {
	for rep := 0; rep < 500; rep++ {
		c, err := NewCollector(CollectorConfig{Transport: netx.NewInProc(0), StragglerThreshold: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for p, m := range []float64{0.1, 1} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.ingestSnapshot(stepSnapshot(p, m))
			}()
		}
		for len(c.Snapshots()) < 2 {
			runtime.Gosched()
		}
		events := c.Events()
		wg.Wait()
		c.Close()
		if len(events) != 1 || events[0].Type != "straggler_detected" || events[0].Replica != 1 {
			t.Fatalf("repetition %d: events %+v once both snapshots were visible, want replica 1's straggler_detected", rep, events)
		}
	}
}
