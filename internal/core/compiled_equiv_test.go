package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"avgpipe/internal/compiled"
	"avgpipe/internal/data"
	"avgpipe/internal/nn"
	"avgpipe/internal/optim"
	"avgpipe/internal/sched"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// interpretBatch is the bit-exactness oracle for the pipelined runtime:
// it runs the batch micro-by-micro through the reference interpreter
// (Sequential.Forward → CrossEntropy → Sequential.Backward) on a whole,
// unpartitioned model — no stages, no goroutines, no compiled programs,
// no Envs — accumulating gradients in micro order and scaling them to a
// batch mean exactly as RunBatch documents. It returns the mean loss.
func interpretBatch(model *nn.Sequential, batch *data.Batch, m int) float64 {
	micros := batch.Slice(m)
	var total float64
	for _, mb := range micros {
		ctx := nn.NewContext()
		loss, dlogits := nn.CrossEntropy(model.Forward(ctx, mb.X, true), mb.Targets)
		model.Backward(ctx, dlogits)
		total += loss
	}
	optim.ScaleGrads(model.Params(), m)
	return total / float64(m)
}

// requireSameBits fails unless the two losses and every parameter
// gradient agree bit for bit (so -0 ≠ +0 and NaN payloads count).
func requireSameBits(t *testing.T, what string, gotLoss, wantLoss float64, got, want []*nn.Param) {
	t.Helper()
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("%s: loss %.17g, reference %.17g", what, gotLoss, wantLoss)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d params, reference %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i].G.Data(), want[i].G.Data()
		if len(g) != len(w) {
			t.Fatalf("%s: param %s has %d grad elements, reference %d", what, want[i].Name, len(g), len(w))
		}
		for j := range w {
			if math.Float32bits(g[j]) != math.Float32bits(w[j]) {
				t.Fatalf("%s: param %s grad[%d] = %.9g, reference %.9g", what, want[i].Name, j, g[j], w[j])
			}
		}
	}
}

// requireOccupancy fails unless the pipeline's last batch ran exactly
// the op counts and stash high-water marks its own schedule's analysis
// predicts, stage by stage.
func requireOccupancy(t *testing.T, pl *Pipeline, m int) {
	t.Helper()
	s, an := pl.ScheduleFor(m)
	for st, met := range pl.Metrics() {
		if met.Fwd != an.Fwd[st] || met.Bwd != an.Bwd[st] || met.BwdW != an.BwdW[st] {
			t.Errorf("%s stage %d ran F=%d Bi=%d Bw=%d, analysis says F=%d Bi=%d Bw=%d",
				s.Name, st, met.Fwd, met.Bwd, met.BwdW, an.Fwd[st], an.Bwd[st], an.BwdW[st])
		}
		if met.PeakInFlight != an.MaxInFlight[st] {
			t.Errorf("%s stage %d peak in-flight %d, analysis %d", s.Name, st, met.PeakInFlight, an.MaxInFlight[st])
		}
	}
}

// dropoutTask is the classification data stream under a small model with
// a Dropout layer in each stage of a K=2 split, so both stage workers
// draw masks while micro-batches overlap.
func dropoutTask() *workload.Task {
	const vocab, seqLen, dim = 16, 8, 12
	base := workload.ClassificationTask()
	return &workload.Task{
		Name: "dropout",
		NewModel: func(seed int64) *nn.Sequential {
			g := tensor.NewRNG(seed)
			return nn.NewSequential(
				nn.NewEmbedding(g, vocab, dim),
				nn.NewLinear(g, dim, dim),
				nn.NewDropout(tensor.NewRNG(seed+1), 0.3),
				&nn.Sigmoid{},
				&nn.MeanPoolTime{SeqLen: seqLen},
				nn.NewDropout(tensor.NewRNG(seed+2), 0.2),
				nn.NewLinear(g, dim, 2),
			)
		},
		NewGen: base.NewGen, LR: base.LR, BatchSize: base.BatchSize,
	}
}

// TestPipelineMatchesInterpreterOracle is the permanent bit-exactness
// gate for stage execution: for every workload task (plus a Dropout
// model), K∈{1,2} and M∈{1,4}, the pipelined runtime must produce the
// loss and every parameter gradient bitwise identical to interpretBatch
// on an identically seeded model. Three rounds with an optimizer step
// in between cover recycled Envs, programs reading updated weights, and
// the RNG stream of mask-drawing layers (Dropout, the langmodel's
// recurrent weight drop) staying in micro order across batches. Any
// divergence — a reordered accumulation, a fused kernel with different
// rounding, a stash corrupted across in-flight micro-batches — trips
// this before it can masquerade as a tuning artifact.
func TestPipelineMatchesInterpreterOracle(t *testing.T) {
	for _, task := range append(workload.Tasks(), dropoutTask()) {
		for _, k := range []int{1, 2} {
			for _, m := range []int{1, 4} {
				task, k, m := task, k, m
				t.Run(fmt.Sprintf("%s/K%d/M%d", task.Name, k, m), func(t *testing.T) {
					ref, pip := task.NewModel(42), task.NewModel(42)
					pl, err := NewPipelineWith(pip, PipelineConfig{Stages: k})
					if err != nil {
						t.Fatal(err)
					}
					gen := task.NewGen(142)
					refOpt, pipOpt := newOptimizer(task), newOptimizer(task)
					for round := 0; round < 3; round++ {
						batch := gen.NextBatch(task.BatchSize)
						want := interpretBatch(ref, batch, m)
						got := runBatch(t, pl, batch, m)
						requireSameBits(t, fmt.Sprintf("round %d", round), got, want, pl.Params(), ref.Params())
						refOpt.Step(ref.Params())
						pipOpt.Step(pl.Params())
						nn.ZeroGrads(ref.Params())
						nn.ZeroGrads(pl.Params())
					}
				})
			}
		}
	}
}

// TestEveryTaskCompilesWithoutFallback: every module of all three
// workload models lowers natively — the training program of each stage
// at K∈{1,2}, and the eval-mode program serving compiles — so no op
// replays the interpreter, and every training stage (each holds weights)
// has grad-weight ops for the 2BP split to move.
func TestEveryTaskCompilesWithoutFallback(t *testing.T) {
	for _, task := range workload.Tasks() {
		for _, k := range []int{1, 2} {
			pl, err := NewPipelineWith(task.NewModel(1), PipelineConfig{Stages: k})
			if err != nil {
				t.Fatalf("%s K=%d: %v", task.Name, k, err)
			}
			for s, prog := range pl.StagePrograms() {
				inf, err := nn.CompileStageInference(pl.Stages[s], compiled.Options{})
				if err != nil {
					t.Fatalf("%s K=%d stage %d inference: %v", task.Name, k, s, err)
				}
				for mode, p := range map[string]*compiled.Program{"train": prog, "inference": inf} {
					for _, name := range p.OpNames() {
						if strings.HasPrefix(name, "fallback:") {
							t.Errorf("%s K=%d stage %d %s program: op %q", task.Name, k, s, mode, name)
						}
					}
				}
				if _, _, bw := prog.Ops(); bw == 0 {
					t.Errorf("%s K=%d stage %d: no grad-weight op", task.Name, k, s)
				}
			}
		}
	}
}

// TestExplicitScheduleMatchesPlanPipeline pins the two constructors to
// one execution path: an unsplit 1F1B schedule handed to
// NewPipelineFromSchedule keeps its combined Bwd ops (both backward
// halves inline) while NewPipelineWith splits the same plan, and the
// two must still agree bitwise on loss and gradients, each reporting
// exactly the stash high-water mark of the schedule it ran. The
// explicit pipeline then refuses a micro count its schedule does not
// cover with an error.
func TestExplicitScheduleMatchesPlanPipeline(t *testing.T) {
	task := workload.TranslationTask()
	const k, m = 2, 4
	batch := task.NewGen(17).NextBatch(task.BatchSize)
	plan := sched.OneFOneBPlan()

	unsplit := plan.Make(k, m)
	fixed, err := NewPipelineFromSchedule(task.NewModel(5), unsplit)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := NewPipelineWith(task.NewModel(5), PipelineConfig{Stages: k, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	fixedLoss := runBatch(t, fixed, batch, m)
	plannedLoss := runBatch(t, planned, batch, m)
	requireSameBits(t, "explicit vs plan-built", fixedLoss, plannedLoss, fixed.Params(), planned.Params())

	requireOccupancy(t, fixed, m)
	requireOccupancy(t, planned, m)
	if s, _ := fixed.ScheduleFor(m); s != unsplit {
		t.Fatal("NewPipelineFromSchedule did not run the schedule it was given")
	}
	// A micro count the schedule does not cover is the caller's mistake:
	// an error before any stage runs, not a panic.
	_, err = fixed.RunBatchContext(context.Background(), batch, 2)
	if want := `schedule "1F1B" covering 4 micro-batches, RunBatch got 2`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("RunBatchContext with 2 micro-batches: got %v, want an error containing %q", err, want)
	}
}

// TestPipelineOccupancy cross-validates the runtime against the
// schedule analysis: with the backward split, the measured per-stage op
// counts and stash high-water marks must equal the split schedule's
// analytic values exactly.
func TestPipelineOccupancy(t *testing.T) {
	task := workload.ClassificationTask()
	model := task.NewModel(7)
	pl, err := NewPipelineWith(model, PipelineConfig{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	const m = 4
	batch := task.NewGen(11).NextBatch(8)
	runBatch(t, pl, batch, m)

	s, _ := pl.ScheduleFor(m)
	for _, ops := range s.PerGPU {
		var bi, bw int
		for _, op := range ops {
			switch op.Kind {
			case sched.BwdIn:
				bi++
			case sched.BwdW:
				bw++
			case sched.Bwd:
				t.Fatalf("plan-built pipeline schedule still has combined op %v", op)
			}
		}
		if bi != m || bw != m {
			t.Fatalf("split schedule has %d BwdIn / %d BwdW ops per stage, want %d each", bi, bw, m)
		}
	}
	requireOccupancy(t, pl, m)

	// The plans behind each stage must satisfy the planner invariants
	// for the shapes this batch actually bound.
	for st, prog := range pl.StagePrograms() {
		if err := prog.CheckPlan(batch.Slice(m)[0].X.Shape()); err != nil && st == 0 {
			t.Errorf("stage %d plan: %v", st, err)
		}
	}
}
