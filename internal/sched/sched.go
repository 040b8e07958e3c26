// Package sched generates pipeline-parallel execution schedules as
// explicit per-GPU operation sequences, and is the single source of
// truth for what every stage does. A schedule fixes, for every GPU, the
// total order in which it runs forward and backward passes of
// micro-batches; the simulator (internal/pipesim) and the real runtime
// (core.Pipeline, a schedule executor) both execute these sequences
// verbatim, so any schedule added here runs end-to-end on real tensors
// and in simulation with zero runtime changes.
//
// Op.Deps is the op-dependency rule: the one event (a micro-batch's
// activation or gradient at a stage) each op waits for and the one it
// produces. Walker steps a schedule through that rule, and Analyze, the
// simulator and the runtime's executor all decide when an op may run
// with it. Analyze provides the shared legality and occupancy layer:
// per-GPU structural validation, the cross-stage deadlock check (the
// only source of ErrDeadlock), and the analytic per-stage op counts,
// stash high-water marks, and weight version demands that both
// consumers are cross-validated against.
// Plan wraps a schedule family as a (k, m) → Schedule generator so
// callers can pick a schedule before the pipeline geometry is fixed.
//
// Implemented schedules, following §4 of the paper:
//
//   - AFAB (all-forward-all-backward): the vanilla/GPipe schedule. Fully
//     overlaps communication with computation but stashes every
//     micro-batch's activations.
//   - 1F1B (one-forward-one-backward): the PipeDream-2BW/Dapple
//     early-backward schedule. Stage s stashes only K−s micro-batches but
//     interleaves the pipeline in both directions, exposing communication.
//   - AFP (1F1B + advance forward propagation): the paper's contribution.
//     Stage s runs `advance[s]` extra forwards ahead of the 1F1B pattern,
//     trading bounded extra stash for AFAB-like overlap (Algorithm 1).
//   - PipeDream / PipeDream-2BW: continuous (no per-batch flush) 1F1B
//     pipelines with multi-version weights.
package sched

import "fmt"

// Kind distinguishes forward from backward passes. A backward pass
// exists in two granularities: the combined Bwd op, and the 2BP-style
// split into BwdIn (grad-input: compute dx and unblock the upstream
// stage) and BwdW (grad-weight: accumulate parameter gradients locally).
// SplitBackward rewrites a schedule from the former into the latter.
type Kind uint8

// Operation kinds.
const (
	Fwd Kind = iota
	Bwd
	// BwdIn is the grad-input half of a split backward: it consumes the
	// downstream gradient and produces the input gradient, so it is the
	// op the upstream stage's backward depends on.
	BwdIn
	// BwdW is the grad-weight half of a split backward: it accumulates
	// parameter gradients from the stashed activations and has no
	// cross-stage consumers, so the scheduler may overlap it freely.
	BwdW
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fwd:
		return "F"
	case BwdIn:
		return "Bi"
	case BwdW:
		return "Bw"
	default:
		return "B"
	}
}

// Backward reports whether the kind is any flavor of backward pass.
func (k Kind) Backward() bool { return k != Fwd }

// Op is one unit of work on a GPU: the forward or backward pass of one
// micro-batch. Micro indices are global across the simulated batches, so
// micro m belongs to batch m/M.
type Op struct {
	Kind  Kind
	Micro int
}

// String implements fmt.Stringer.
func (o Op) String() string { return fmt.Sprintf("%s%d", o.Kind, o.Micro+1) }

// Schedule is a complete per-GPU execution plan.
type Schedule struct {
	// Name identifies the schedule in experiment tables.
	Name string
	// PerGPU[k] is the ordered operation list of GPU k. With B batches of
	// M micro-batches, each list holds 2·M·B ops.
	PerGPU [][]Op
	// Continuous marks pipelines that never flush between batches
	// (PipeDream, PipeDream-2BW); their micro streams cross batch
	// boundaries without a barrier.
	Continuous bool
	// WeightVersions returns how many weight versions stage s must keep
	// resident (1 for synchronous schedules, K−s for PipeDream, 2 for
	// PipeDream-2BW).
	WeightVersions func(s, k int) int
}

func oneVersion(s, k int) int { return 1 }

// afabOrder emits the per-GPU list for all-forward-all-backward over
// micros [lo, hi).
func afabOrder(lo, hi int) []Op {
	ops := make([]Op, 0, 2*(hi-lo))
	for m := lo; m < hi; m++ {
		ops = append(ops, Op{Fwd, m})
	}
	for m := lo; m < hi; m++ {
		ops = append(ops, Op{Bwd, m})
	}
	return ops
}

// AFAB returns the all-forward-all-backward schedule for K stages, M
// micro-batches per batch, and `batches` sequential batches.
func AFAB(k, m, batches int) *Schedule {
	validate(k, m, batches)
	per := make([][]Op, k)
	for s := 0; s < k; s++ {
		for b := 0; b < batches; b++ {
			per[s] = append(per[s], afabOrder(b*m, (b+1)*m)...)
		}
	}
	return &Schedule{Name: "AFAB", PerGPU: per, WeightVersions: oneVersion}
}

// interleaveOrder emits the 1F1B pattern with warmup w over micros
// [lo, hi): w forwards, then (B,F) pairs, then the draining backwards.
func interleaveOrder(lo, hi, w int) []Op {
	m := hi - lo
	if w > m {
		w = m
	}
	ops := make([]Op, 0, 2*m)
	for i := 0; i < w; i++ {
		ops = append(ops, Op{Fwd, lo + i})
	}
	for i := w; i < m; i++ {
		ops = append(ops, Op{Bwd, lo + i - w}, Op{Fwd, lo + i})
	}
	for i := m - w; i < m; i++ {
		ops = append(ops, Op{Bwd, lo + i})
	}
	return ops
}

// OneFOneB returns the synchronous 1F1B (early-backward) schedule: stage
// s warms up with K−s forwards, then strictly alternates.
func OneFOneB(k, m, batches int) *Schedule {
	s := AFP(k, m, batches, make([]int, k))
	s.Name = "1F1B"
	return s
}

// AFP returns 1F1B with advance forward propagation: stage s warms up
// with K−s+advance[s] forwards. advance of all zeros degenerates to 1F1B;
// advance[s] ≥ M−(K−s) degenerates to AFAB (§4.2 "Pros and Cons").
func AFP(k, m, batches int, advance []int) *Schedule {
	validate(k, m, batches)
	if len(advance) != k {
		panic(fmt.Sprintf("sched: advance length %d, want %d", len(advance), k))
	}
	per := make([][]Op, k)
	for s := 0; s < k; s++ {
		if advance[s] < 0 {
			panic("sched: negative advance")
		}
		w := k - s + advance[s]
		for b := 0; b < batches; b++ {
			per[s] = append(per[s], interleaveOrder(b*m, (b+1)*m, w)...)
		}
	}
	name := "AFP"
	return &Schedule{Name: name, PerGPU: per, WeightVersions: oneVersion}
}

// PipeDream returns the continuous multi-version pipeline: the 1F1B
// pattern runs across batch boundaries with no flush, and stage s keeps
// K−s weight versions resident.
func PipeDream(k, m, batches int) *Schedule {
	validate(k, m, batches)
	per := make([][]Op, k)
	for s := 0; s < k; s++ {
		per[s] = interleaveOrder(0, m*batches, k-s)
	}
	return &Schedule{
		Name: "PipeDream", PerGPU: per, Continuous: true,
		WeightVersions: func(s, kk int) int { return kk - s },
	}
}

// PipeDream2BW returns the continuous double-buffered pipeline: same
// execution pattern as PipeDream but only 2 weight versions per stage.
func PipeDream2BW(k, m, batches int) *Schedule {
	s := PipeDream(k, m, batches)
	s.Name = "PipeDream-2BW"
	s.WeightVersions = func(_, _ int) int { return 2 }
	return s
}

// Dapple returns the Dapple schedule, which on a linear partition is the
// synchronous 1F1B early-backward schedule.
func Dapple(k, m, batches int) *Schedule {
	s := OneFOneB(k, m, batches)
	s.Name = "Dapple"
	return s
}

// GPipe returns the GPipe schedule; with activation recomputation
// disabled (as in the paper's experiments) it is AFAB.
func GPipe(k, m, batches int) *Schedule {
	s := AFAB(k, m, batches)
	s.Name = "GPipe"
	return s
}

// LegalAdvance reports whether an advance vector yields a deadlock-free
// AFP schedule: stage s's warmup (its run-ahead demand on stage s−1) must
// not exceed stage s−1's warmup, or the two stages end up waiting on each
// other across the forward/backward interleave.
func LegalAdvance(k, m int, advance []int) bool {
	if len(advance) != k {
		return false
	}
	clamp := func(w int) int {
		if w > m {
			return m
		}
		return w
	}
	for s := 1; s < k; s++ {
		if advance[s] < 0 || advance[s-1] < 0 {
			return false
		}
		if clamp(k-s+advance[s]) > clamp(k-s+1+advance[s-1]) {
			return false
		}
	}
	return k < 1 || advance[0] >= 0
}

func validate(k, m, batches int) {
	if k <= 0 || m <= 0 || batches <= 0 {
		panic(fmt.Sprintf("sched: invalid dimensions K=%d M=%d batches=%d", k, m, batches))
	}
}

// SplitBackward rewrites every combined Bwd op into the adjacent pair
// BwdIn, BwdW — the 2BP-style backward split the compiled runtime
// executes. Adjacency keeps each micro-batch's grad-weight accumulation
// in the same position of the per-parameter accumulation order as the
// combined op, so a split schedule trains bitwise-identically to its
// unsplit original; the gain is that the input gradient ships upstream
// after BwdIn, before the grad-weight work runs. Fwd ops and schedules
// already split pass through unchanged.
func SplitBackward(s *Schedule) *Schedule {
	out := &Schedule{
		Name:           s.Name,
		Continuous:     s.Continuous,
		WeightVersions: s.WeightVersions,
		PerGPU:         make([][]Op, len(s.PerGPU)),
	}
	for g, ops := range s.PerGPU {
		split := make([]Op, 0, 2*len(ops))
		for _, op := range ops {
			if op.Kind == Bwd {
				split = append(split, Op{BwdIn, op.Micro}, Op{BwdW, op.Micro})
			} else {
				split = append(split, op)
			}
		}
		out.PerGPU[g] = split
	}
	return out
}

// MaxInFlight returns, for each GPU, the peak number of micro-batches
// whose forward has run but whose backward has not — the activation-stash
// high-water mark the schedule implies. With a split backward the stash
// lives until BwdW: the grad-weight op still reads the stashed
// activations, so BwdIn does not retire the micro-batch.
func (s *Schedule) MaxInFlight() []int {
	out := make([]int, len(s.PerGPU))
	for k, ops := range s.PerGPU {
		cur, peak := 0, 0
		for _, op := range ops {
			switch op.Kind {
			case Fwd:
				cur++
				if cur > peak {
					peak = cur
				}
			case Bwd, BwdW:
				cur--
			}
		}
		out[k] = peak
	}
	return out
}

// Validate checks the structural invariants every legal schedule must
// satisfy: each micro's forward appears exactly once per GPU, and its
// backward appears exactly once after it — either as one combined Bwd op
// or as the split pair BwdIn then BwdW (never both forms for the same
// micro).
func (s *Schedule) Validate() error {
	for k, ops := range s.PerGPU {
		fwdSeen := map[int]int{}
		bwdSeen := map[int]int{}
		biSeen := map[int]int{}
		bwSeen := map[int]int{}
		for i, op := range ops {
			switch op.Kind {
			case Fwd:
				if _, dup := fwdSeen[op.Micro]; dup {
					return fmt.Errorf("sched %s: GPU %d repeats F%d", s.Name, k, op.Micro)
				}
				fwdSeen[op.Micro] = i
			case Bwd:
				if _, dup := bwdSeen[op.Micro]; dup {
					return fmt.Errorf("sched %s: GPU %d repeats B%d", s.Name, k, op.Micro)
				}
				if _, split := biSeen[op.Micro]; split {
					return fmt.Errorf("sched %s: GPU %d mixes B%d with split Bi%d", s.Name, k, op.Micro, op.Micro)
				}
				fi, ok := fwdSeen[op.Micro]
				if !ok || fi > i {
					return fmt.Errorf("sched %s: GPU %d runs B%d before F%d", s.Name, k, op.Micro, op.Micro)
				}
				bwdSeen[op.Micro] = i
			case BwdIn:
				if _, dup := biSeen[op.Micro]; dup {
					return fmt.Errorf("sched %s: GPU %d repeats Bi%d", s.Name, k, op.Micro)
				}
				if _, combined := bwdSeen[op.Micro]; combined {
					return fmt.Errorf("sched %s: GPU %d mixes Bi%d with combined B%d", s.Name, k, op.Micro, op.Micro)
				}
				fi, ok := fwdSeen[op.Micro]
				if !ok || fi > i {
					return fmt.Errorf("sched %s: GPU %d runs Bi%d before F%d", s.Name, k, op.Micro, op.Micro)
				}
				biSeen[op.Micro] = i
			case BwdW:
				if _, dup := bwSeen[op.Micro]; dup {
					return fmt.Errorf("sched %s: GPU %d repeats Bw%d", s.Name, k, op.Micro)
				}
				bi, ok := biSeen[op.Micro]
				if !ok || bi > i {
					return fmt.Errorf("sched %s: GPU %d runs Bw%d before Bi%d", s.Name, k, op.Micro, op.Micro)
				}
				bwSeen[op.Micro] = i
			}
		}
		for m := range biSeen {
			if _, ok := bwSeen[m]; !ok {
				return fmt.Errorf("sched %s: GPU %d missing Bw%d after Bi%d", s.Name, k, m, m)
			}
		}
		if backs := len(bwdSeen) + len(biSeen); len(fwdSeen) != backs {
			return fmt.Errorf("sched %s: GPU %d has %d forwards but %d backwards", s.Name, k, len(fwdSeen), backs)
		}
		for m := range fwdSeen {
			if _, combined := bwdSeen[m]; combined {
				continue
			}
			if _, split := biSeen[m]; !split {
				return fmt.Errorf("sched %s: GPU %d missing B%d", s.Name, k, m)
			}
		}
	}
	return nil
}
