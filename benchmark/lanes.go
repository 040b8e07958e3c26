package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// lane is one goroutine's worth of training rounds: a whole
// single-process trainer (which fans its pipelines out itself), or one
// replica of a dist-mode job.
type lane struct {
	step   func(ctx context.Context) (float64, error)
	losses []float64
	durMS  []float64
	ends   []time.Time // when each recorded round finished
	failed int
}

// roundLimit lets replicas that are coupled by a per-round barrier stop
// at the same round without a coordinator. A replica can only reach the
// top of round r+1 after every replica has submitted round r, so the
// first one to see the clock run out at the top of round r publishes
// "finish r, stop before r+1": its own submit of r happens after the
// publish, which orders the publish before any peer's top of r+1.
type roundLimit struct{ stopBefore atomic.Int64 }

func newRoundLimit() *roundLimit {
	l := &roundLimit{}
	l.stopBefore.Store(math.MaxInt64)
	return l
}

// proceed reports whether a replica at the top of round r should run
// it; expired says the replica's clock has run out.
func (l *roundLimit) proceed(r int, expired bool) bool {
	if expired {
		l.stopBefore.CompareAndSwap(math.MaxInt64, int64(r)+1)
	}
	return int64(r) < l.stopBefore.Load()
}

// runLanes drives every lane until the deadline passes (zero deadline =
// no clock) or maxRounds rounds have run (0 = no cap), all lanes
// stopping at the same round. A lane whose step fails stops the run:
// its peers could otherwise wait on a round it will never submit.
func runLanes(ctx context.Context, lanes []*lane, deadline time.Time, maxRounds int) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	limit := newRoundLimit()
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for r := 0; ; r++ {
				// "expired" means round r is the last one to run.
				expired := (maxRounds > 0 && r >= maxRounds-1) ||
					(!deadline.IsZero() && !time.Now().Before(deadline))
				if !limit.proceed(r, expired) || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				loss, err := l.step(ctx)
				if err != nil {
					l.failed++
					cancel()
					return
				}
				end := time.Now()
				l.durMS = append(l.durMS, ms(int64(end.Sub(t0))))
				l.ends = append(l.ends, end)
				l.losses = append(l.losses, loss)
			}
		}(l)
	}
	wg.Wait()
}

// reset drops what a lane has recorded (after warm-up).
func (l *lane) reset() { l.losses, l.durMS, l.ends, l.failed = nil, nil, nil, 0 }
