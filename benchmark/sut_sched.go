package main

// Adapter: calls into internal/sched. The ideal bubble fraction is a
// count computed from the schedule the pipeline says it executes, not a
// measurement.

import (
	"fmt"

	"avgpipe/internal/sched"
)

// idealBubbleFraction replays the pipeline's schedule for m
// micro-batches with unit costs (forward 1, backward 2, split halves 1
// each) and returns the share of stage-time that is idle: the floor the
// measured core.bubble_fraction sits above.
func idealBubbleFraction(pl *pipeline, m int) (float64, error) {
	s, _ := pl.ScheduleFor(m)
	if _, err := sched.Analyze(s); err != nil {
		return 0, err
	}
	return unitCostIdleShare(s)
}

func unitCostIdleShare(s *sched.Schedule) (float64, error) {
	k := len(s.PerGPU)
	type key struct {
		stage, micro int
		fwd          bool
	}
	done := make(map[key]int) // finish time of the op other stages depend on
	next := make([]int, k)
	free := make([]int, k)
	work := 0
	for progressed := true; progressed; {
		progressed = false
		for g := 0; g < k; g++ {
			for next[g] < len(s.PerGPU[g]) {
				op := s.PerGPU[g][next[g]]
				ready, cost := 0, 1
				ok := true
				switch op.Kind {
				case sched.Fwd:
					if g > 0 {
						ready, ok = done[key{g - 1, op.Micro, true}]
					}
				case sched.Bwd, sched.BwdIn:
					if op.Kind == sched.Bwd {
						cost = 2
					}
					if g < k-1 {
						ready, ok = done[key{g + 1, op.Micro, false}]
					}
				}
				if !ok {
					break
				}
				start := free[g]
				if ready > start {
					start = ready
				}
				free[g] = start + cost
				work += cost
				switch op.Kind {
				case sched.Fwd:
					done[key{g, op.Micro, true}] = free[g]
				case sched.Bwd, sched.BwdIn:
					done[key{g, op.Micro, false}] = free[g]
				}
				next[g]++
				progressed = true
			}
		}
	}
	makespan := 0
	for g := 0; g < k; g++ {
		if next[g] != len(s.PerGPU[g]) {
			return 0, fmt.Errorf("schedule %s: stage %d stuck at op %d", s.Name, g, next[g])
		}
		if free[g] > makespan {
			makespan = free[g]
		}
	}
	if makespan == 0 {
		return 0, nil
	}
	return 1 - float64(work)/float64(k*makespan), nil
}
