package heal

import (
	"context"
	"sync"
	"testing"
	"time"

	"avgpipe/internal/core"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
)

func smallParams() []*nn.Param {
	return []*nn.Param{nn.NewParam("w", tensor.New(4))}
}

// The supervisor races against live SubmitContext/Detach/Rejoin traffic
// on a real averager: detaches triggered by injected health events must
// interleave safely with rounds closing, replicas rejoining, and the
// adaptive deadline moving. Run under -race (the Makefile race tier).
func TestSupervisorRacesWithAveragerTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	a := core.NewAveragerObs(3, smallParams(), reg)
	defer a.Close()
	a.SetRoundDeadline(5 * time.Millisecond)

	s := New(a, reg.Events(), Config{
		Self: 0, Interval: time.Millisecond,
		MissedRounds: 50, // high: detaches in this test come from events
		MinDeadline:  time.Millisecond, MaxDeadline: 50 * time.Millisecond,
	})
	s.Start()
	defer s.Stop()

	const rounds = 200
	var wg sync.WaitGroup
	// Replicas 0 and 1 submit every round.
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ps := smallParams()
			for r := 0; r < rounds; r++ {
				ps[0].W.Data()[0] += 1
				if err := a.SubmitContext(context.Background(), p, r, ps); err != nil {
					t.Errorf("pipeline %d round %d: %v", p, r, err)
					return
				}
			}
		}(p)
	}
	// Replica 2 flaps: the supervisor detaches it on stall events, the
	// flapper rejoins it, concurrently with the submitters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ps := smallParams()
		for i := 0; i < 50; i++ {
			reg.Events().Emit(obs.Event{Type: obs.EventWatchdogStall, Replica: 2})
			a.Rejoin(2, ps)
		}
		// Leave it detached so pending rounds can close without it.
		a.Detach(2)
	}()
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.DrainContext(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitFor(t, "all rounds closed", func() bool { return a.PendingRounds() == 0 })
}

// waitFor polls cond until it holds: the averager closes the rounds the
// flapping replica left short on its own deadline ticker, which no call
// here can wait on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
