package main

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// barrierLanes are n lanes whose every round waits for all n — the
// coupling dist-mode replicas have through WaitRound. A lane that ran a
// round its peers skipped would block forever.
func barrierLanes(n int, perRound time.Duration) []*lane {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	arrived := make(map[int]int)
	lanes := make([]*lane, n)
	for i := range lanes {
		round := 0
		lanes[i] = &lane{step: func(ctx context.Context) (float64, error) {
			time.Sleep(perRound)
			mu.Lock()
			arrived[round]++
			cond.Broadcast()
			for arrived[round] < n {
				cond.Wait()
			}
			mu.Unlock()
			round++
			return float64(round), nil
		}}
	}
	return lanes
}

func TestRunLanesStopTogether(t *testing.T) {
	lanes := barrierLanes(3, 200*time.Microsecond)
	done := make(chan struct{})
	go func() {
		runLanes(context.Background(), lanes, time.Now().Add(30*time.Millisecond), 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lanes did not stop at a common round")
	}
	for i, l := range lanes {
		if len(l.losses) != len(lanes[0].losses) || len(l.losses) == 0 {
			t.Errorf("lane %d ran %d rounds, lane 0 ran %d", i, len(l.losses), len(lanes[0].losses))
		}
		if len(l.durMS) != len(l.losses) || l.failed != 0 {
			t.Errorf("lane %d: %d durations, %d losses, %d failed", i, len(l.durMS), len(l.losses), l.failed)
		}
	}
}

func TestRunLanesRoundCap(t *testing.T) {
	lanes := barrierLanes(2, 0)
	runLanes(context.Background(), lanes, time.Time{}, 7)
	for i, l := range lanes {
		if len(l.losses) != 7 {
			t.Errorf("lane %d ran %d rounds, want 7", i, len(l.losses))
		}
	}
}

// A failed round is counted, recorded as no sample, and ends the run.
func TestRunLanesCountsFailure(t *testing.T) {
	calls := 0
	l := &lane{step: func(context.Context) (float64, error) {
		calls++
		if calls == 3 {
			return 0, errors.New("boom")
		}
		return 1, nil
	}}
	runLanes(context.Background(), []*lane{l}, time.Time{}, 10)
	if l.failed != 1 || len(l.losses) != 2 || calls != 3 {
		t.Errorf("failed %d, samples %d, calls %d; want 1, 2, 3", l.failed, len(l.losses), calls)
	}
}
