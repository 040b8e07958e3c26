package main

// Adapter: calls into internal/optim and the gradient helpers in
// internal/nn that sit between the pipeline and the optimizer.

import (
	"avgpipe/internal/nn"
	"avgpipe/internal/optim"
)

type optimizer = optim.Optimizer

// newOptimizer picks what the trainer picks for a task: SGD when the
// task says so, Adam otherwise.
func newOptimizer(t *task) optimizer {
	if t.UseSGD {
		return optim.NewSGD(t.LR)
	}
	return optim.NewAdam(t.LR)
}

func clipGradNorm(ps []*param, max float64) { optim.ClipGradNorm(ps, max) }
func optimStep(o optimizer, ps []*param)    { o.Step(ps) }
func zeroGrads(ps []*param)                 { nn.ZeroGrads(ps) }
