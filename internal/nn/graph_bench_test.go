package nn

import (
	"testing"

	"avgpipe/internal/compiled"
	"avgpipe/internal/tensor"
)

// Steady-state micro-batch benchmarks for the compiled op-graph path
// (BENCH_graph.json, gated by `make bench-graph-gate`). Each iteration
// replays one full micro-batch — forward, 2BP grad-input, grad-weight,
// EndMicro — against a pre-built Program and a reused Env, exactly the
// loop the compiled stage worker runs after its pool warms up. The
// allocs/op column is the contract: the replay makes zero allocation
// decisions on slot registers, so allocations must not grow when the
// compiler or planner changes.

// benchStage is a middle-of-pipeline MLP stage: a fusable Linear+ReLU
// pair, a LayerNorm, and a boundary Linear whose output ships downstream.
func benchStage(rng *tensor.RNG) *Sequential {
	return NewSequential(
		NewLinear(rng, 64, 64),
		&ReLU{},
		NewLayerNorm(64),
		NewLinear(rng, 64, 64),
	)
}

// replayMicro drives one compiled micro-batch with the ownership moves
// of a real middle stage: the downstream stage owns the shipped output,
// the upstream stage owns the shipped input-gradient, and EndMicro
// retires the incoming gradient.
func replayMicro(env *compiled.Env, x *tensor.Tensor) {
	env.BindInput(x)
	env.Forward()
	out := env.Output()
	dy := tensor.Borrow(out.Shape()...) // downstream ships dL/dout back
	env.BindGradIn(dy)
	env.BackwardInput()
	dx := env.GradOut()
	env.BackwardWeights()
	env.EndMicro() // releases dy
	out.Release()  // downstream done with the activation
	if dx != nil {
		dx.Release() // upstream done with the gradient
	}
}

func BenchmarkGraphMLPMicro(b *testing.B) {
	rng := tensor.NewRNG(21)
	stage := benchStage(rng)
	benchReplay(b, stage, rng.Uniform(-1, 1, 32, 64))
}

// BenchmarkGraphDropoutMicro exercises the per-micro aux path: Dropout
// and Sigmoid stash masks and activations in the Env, not the module,
// so the replay stays allocation-free even though the stage is
// stateful per micro-batch.
func BenchmarkGraphDropoutMicro(b *testing.B) {
	rng := tensor.NewRNG(22)
	stage := NewSequential(
		NewLinear(rng, 64, 64),
		NewDropout(rng, 0.1),
		NewLinear(rng, 64, 64),
		&Sigmoid{},
	)
	benchReplay(b, stage, rng.Uniform(-1, 1, 32, 64))
}

// BenchmarkGraphMLPMicroInterp is the interpreter running the identical
// stage and ownership moves — the dispatch/allocation gap between this
// and BenchmarkGraphMLPMicro is what the compiled path buys.
func BenchmarkGraphMLPMicroInterp(b *testing.B) {
	rng := tensor.NewRNG(21)
	stage := benchStage(rng)
	benchInterp(b, stage, rng.Uniform(-1, 1, 32, 64))
}

// lstmStage is gnmt-n2's second stage at its micro-batch shape (5 steps
// of 8 rows): an LSTM 48→48 and the output Linear.
func lstmStage(rng *tensor.RNG) *Sequential {
	return NewSequential(NewLSTM(rng, 48, 48, 5), NewLinear(rng, 48, 10))
}

// BenchmarkGraphLSTMMicro and BenchmarkGraphLSTMMicroInterp are the same
// pair for the lowered LSTM: per-step cell ops on slots and per-step
// grad-weight accumulates against the interpreter's LSTM.
func BenchmarkGraphLSTMMicro(b *testing.B) {
	rng := tensor.NewRNG(23)
	stage := lstmStage(rng)
	benchReplay(b, stage, rng.Uniform(-1, 1, 5*8, 48))
}

func BenchmarkGraphLSTMMicroInterp(b *testing.B) {
	rng := tensor.NewRNG(23)
	stage := lstmStage(rng)
	benchInterp(b, stage, rng.Uniform(-1, 1, 5*8, 48))
}

// benchReplay compiles stage as a middle stage and times replayMicro.
func benchReplay(b *testing.B, stage *Sequential, x *tensor.Tensor) {
	prog, err := CompileStage(stage, compiled.Options{EmitOut: true, EmitDX: true})
	if err != nil {
		b.Fatal(err)
	}
	env := prog.NewEnv(x.Shape())
	replayMicro(env, x) // warm the arena free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayMicro(env, x)
	}
}

// benchInterp times the interpreter's forward and backward of stage with
// replayMicro's ownership moves.
func benchInterp(b *testing.B, stage *Sequential, x *tensor.Tensor) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := NewContext()
		out := stage.Forward(ctx, x, true)
		dy := tensor.Borrow(out.Shape()...)
		dx := stage.Backward(ctx, dy)
		if dx != dy {
			dy.Release()
		}
		out.Release()
		if dx != nil {
			dx.Release()
		}
	}
}
