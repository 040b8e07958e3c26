package main

// Adapter: calls into internal/nn, internal/compiled and
// internal/workload made by the whole-model micro-batch probes.

import (
	"avgpipe/internal/compiled"
	"avgpipe/internal/nn"
	wl "avgpipe/internal/workload"
)

// compiledMicro replays one micro-batch — forward, loss, 2BP grad-input
// then grad-weight, retire — of the whole model lowered as one stage,
// the loop a K=1 compiled stage worker runs.
type compiledMicro struct {
	env *compiled.Env
	b   *batch
}

func newCompiledMicro(m *sequential, b *batch) (*compiledMicro, error) {
	prog, err := nn.CompileStage(m, compiled.Options{})
	if err != nil {
		return nil, err
	}
	if err := prog.CheckPlan(b.X.Shape()); err != nil {
		return nil, err
	}
	return &compiledMicro{env: prog.NewEnv(b.X.Shape()), b: b}, nil
}

func (c *compiledMicro) run() float64 {
	c.env.BindInput(c.b.X)
	c.env.Forward()
	loss, dlogits := nn.CrossEntropy(c.env.Output(), c.b.Targets)
	c.env.ReleaseOutput()
	c.env.BindGradIn(dlogits)
	c.env.BackwardInput()
	c.env.BackwardWeights()
	c.env.EndMicro()
	return loss
}

// interpMicro is the same micro-batch through the interpreter's
// Forward/Backward.
func interpMicro(m *sequential, b *batch) float64 { return wl.TrainStep(m, b) }

// inferenceForward replays the eval-mode compiled graph on a batch of n
// sequences, the work one serve worker does per dynamic batch.
type inferenceForward struct {
	env *compiled.Env
	x   *batch
}

func newInferenceForward(m *sequential, x *batch) (*inferenceForward, error) {
	prog, err := nn.CompileStageInference(m, compiled.Options{})
	if err != nil {
		return nil, err
	}
	if err := prog.CheckPlan(x.X.Shape()); err != nil {
		return nil, err
	}
	return &inferenceForward{env: prog.NewEnv(x.X.Shape()), x: x}, nil
}

func (f *inferenceForward) run() float32 {
	f.env.BindInput(f.x.X)
	f.env.Forward()
	v := f.env.Output().Data()[0]
	f.env.ReleaseOutput()
	f.env.EndMicro()
	return v
}
