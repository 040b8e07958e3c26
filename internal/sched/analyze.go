package sched

import "fmt"

// Analysis summarizes a schedule's legality and resource demands. It is
// the occupancy model shared by the real runtime (core.Pipeline asserts
// its measured StageMetrics against it) and the simulator (pipesim
// derives activation-stash memory from it). Together with the
// dependency rule (Op.Deps), which all three walk the schedule by, it is
// what makes sim-vs-real cross-validation possible: every consumer
// answers "what should stage s do, when may it do it, and what does that
// cost" from the same code.
type Analysis struct {
	// Stages is the pipeline depth K.
	Stages int
	// Micros is the number of distinct micro-batches every GPU processes.
	Micros int
	// MaxMicro is the largest micro index that appears (single-flush
	// schedules over m micros have Micros == m and MaxMicro == m−1).
	MaxMicro int
	// Fwd[k] and Bwd[k] count the forward and backward passes of GPU k;
	// a split backward's BwdIn op counts in Bwd (it is the pass that
	// unblocks the upstream stage) and its BwdW op counts in BwdW.
	Fwd, Bwd []int
	// BwdW[k] counts GPU k's grad-weight ops; zero for schedules whose
	// backwards are combined Bwd ops.
	BwdW []int
	// MaxInFlight[k] is GPU k's activation-stash high-water mark: the
	// peak number of micro-batches whose forward has run but whose
	// backward has not.
	MaxInFlight []int
	// WeightVersions[k] is how many weight versions stage k keeps
	// resident under this schedule.
	WeightVersions []int
}

// TotalOps returns the schedule-wide op count (forwards plus backwards,
// counting both halves of split backwards, across all GPUs) — the
// denominator observability cross-checks use when comparing obs-measured
// op counters against the analysis.
func (a *Analysis) TotalOps() int {
	n := 0
	for k := range a.Fwd {
		n += a.Fwd[k] + a.Bwd[k] + a.BwdW[k]
	}
	return n
}

// Analyze checks a schedule's full legality and returns its occupancy
// analysis. Legality has two layers:
//
//  1. per-GPU structure (Schedule.Validate): each micro's forward and
//     backward appear exactly once, in that order;
//  2. cross-stage dependencies: Analyze walks the schedule under the
//     dependency rule (Op.Deps) at zero cost and reports a deadlock —
//     e.g. an AFP advance vector where a downstream stage out-runs its
//     upstream — as an error wrapping ErrDeadlock that names the stuck
//     ops.
//
// It also rejects a GPU whose grad-weight ops retire micro-batches in a
// different order than its grad-input ops (accumulationOrder).
//
// A schedule that passes Analyze runs to completion on both the real
// runtime and the simulator.
func Analyze(s *Schedule) (*Analysis, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	k := len(s.PerGPU)
	if k == 0 {
		return nil, fmt.Errorf("sched %s: no GPUs", s.Name)
	}
	a := &Analysis{
		Stages:         k,
		MaxMicro:       -1,
		Fwd:            make([]int, k),
		Bwd:            make([]int, k),
		BwdW:           make([]int, k),
		MaxInFlight:    s.MaxInFlight(),
		WeightVersions: make([]int, k),
	}
	for g, ops := range s.PerGPU {
		if err := accumulationOrder(s.Name, g, ops); err != nil {
			return nil, err
		}
		a.WeightVersions[g] = 1
		if s.WeightVersions != nil {
			a.WeightVersions[g] = s.WeightVersions(g, k)
		}
		for _, op := range ops {
			if op.Micro < 0 {
				return nil, fmt.Errorf("sched %s: GPU %d has negative micro index %d", s.Name, g, op.Micro)
			}
			a.MaxMicro = max(a.MaxMicro, op.Micro)
			switch op.Kind {
			case Fwd:
				a.Fwd[g]++
			case BwdW:
				a.BwdW[g]++
			default:
				a.Bwd[g]++
			}
		}
	}

	// Every micro-batch crosses every stage, so all GPUs must process the
	// same micro set.
	micros := make(map[int]bool)
	for _, op := range s.PerGPU[0] {
		if op.Kind == Fwd {
			micros[op.Micro] = true
		}
	}
	a.Micros = len(micros)
	for g := 1; g < k; g++ {
		if a.Fwd[g] != a.Micros {
			return nil, fmt.Errorf("sched %s: GPU %d covers %d micros, GPU 0 covers %d", s.Name, g, a.Fwd[g], a.Micros)
		}
		for _, op := range s.PerGPU[g] {
			if op.Kind == Fwd && !micros[op.Micro] {
				return nil, fmt.Errorf("sched %s: GPU %d runs %s unknown to GPU 0", s.Name, g, op)
			}
		}
	}

	// Zero-cost execution under the dependency rule: any ready op will
	// do, since running one never makes another unready.
	if err := NewWalker(s).Run(func(ready []int) int { return ready[0] }); err != nil {
		return nil, err
	}
	return a, nil
}

// accumulationOrder requires GPU g's parameter gradients to accumulate
// micro-batches in the order its backward passes consumed them: the
// micros of its BwdW (and combined Bwd) ops, in program order, must be
// the micros of its BwdIn (and Bwd) ops. Every lowered layer adds one
// micro-batch's gradient to the parameters' running sums, so this order
// fixes their rounding, and SplitBackward's bitwise identity with the
// combined schedule (and with the interpreter oracle) holds only under
// it. The error names the first grad-weight op out of that order.
func accumulationOrder(name string, g int, ops []Op) error {
	var order []int
	for _, op := range ops {
		if op.Kind == Bwd || op.Kind == BwdIn {
			order = append(order, op.Micro)
		}
	}
	i := 0
	for _, op := range ops {
		if op.Kind != Bwd && op.Kind != BwdW {
			continue
		}
		if i < len(order) && op.Micro != order[i] {
			return fmt.Errorf("sched %s: GPU %d runs %s out of accumulation order: the next grad-weight op must be %s, as the grad-input order has it",
				name, g, op, Op{BwdW, order[i]})
		}
		i++
	}
	return nil
}
