package core

import (
	"avgpipe/internal/data"
	"avgpipe/internal/nn"
	"avgpipe/internal/optim"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// StaleTrainer emulates the training semantics of multi-version pipelines
// for the statistical-efficiency comparison (Fig. 14): PipeDream computes
// gradients against weights that are up to K−1 updates old (one stashed
// version per in-flight micro-batch), and PipeDream-2BW bounds the
// staleness to one update with its two buffered versions. The gradient is
// evaluated on a Delay-steps-old snapshot but applied to the current
// weights — exactly the asynchronous-update semantics whose statistical
// cost the paper measures.
type StaleTrainer struct {
	// Delay is the version lag in optimizer steps (PipeDream: K−1;
	// PipeDream-2BW: 1; 0 degenerates to synchronous training).
	Delay int

	model   *nn.Sequential
	shadow  *nn.Sequential // evaluates gradients on old weights
	opt     optim.Optimizer
	history [][]*tensor.Tensor // ring of past weight snapshots
	task    *workload.Task
	gen     data.Generator
}

// NewStaleTrainer builds the trainer around a fresh model.
func NewStaleTrainer(task *workload.Task, seed int64, delay int) *StaleTrainer {
	if delay < 0 {
		panic("core: negative staleness delay")
	}
	return &StaleTrainer{
		Delay:  delay,
		model:  task.NewModel(seed),
		shadow: task.NewModel(seed),
		opt:    newOptimizer(task),
		task:   task,
		gen:    task.NewGen(seed + 100),
	}
}

// snapshot deep-copies the current model weights.
func (st *StaleTrainer) snapshot() []*tensor.Tensor {
	ps := st.model.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.W.Clone()
	}
	return out
}

// Step trains one batch with delayed-gradient semantics and returns the
// training loss (measured on the stale weights, as the real system would).
func (st *StaleTrainer) Step() float64 {
	// Record the current version, keep only Delay+1 of them.
	st.history = append(st.history, st.snapshot())
	if len(st.history) > st.Delay+1 {
		st.history = st.history[1:]
	}
	// Gradients come from the oldest resident version.
	old := st.history[0]
	shadowParams := st.shadow.Params()
	for i, p := range shadowParams {
		p.W.CopyFrom(old[i])
		p.MarkDense()
	}
	nn.ZeroGrads(shadowParams)
	batch := st.gen.NextBatch(st.task.BatchSize)
	loss := workload.TrainStep(st.shadow, batch)
	optim.ClipGradNorm(shadowParams, 5)
	// Apply the stale gradient to the *current* weights.
	modelParams := st.model.Params()
	for i, p := range modelParams {
		p.G.CopyFrom(shadowParams[i].G)
		p.MarkDense()
	}
	st.opt.Step(modelParams)
	nn.ZeroGrads(modelParams)
	return loss
}

// Eval evaluates the current weights on the held-out batch.
func (st *StaleTrainer) Eval() (loss, acc float64) {
	return workload.Evaluate(st.model, st.gen.EvalBatch(), st.task.PerPosition)
}
