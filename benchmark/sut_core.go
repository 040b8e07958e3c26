package main

// Adapter: calls into internal/core (pipeline runtime and elastic
// averager) made by the traced stepper and the layer probes. Only the
// context-taking, most general entry points are used.

import (
	"context"
	"time"

	"avgpipe/internal/core"
	"avgpipe/internal/fault"
	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
)

type (
	pipeline = core.Pipeline
	averager = core.Averager
	injector = fault.Injector
	registry = obs.Registry
)

func newRegistry() *registry { return obs.NewRegistry() }

// newInjector mirrors NewTrainer: a zero fault config means no injector.
func newInjector(cfg faultConfig, reg *registry) (*injector, error) {
	if cfg == (faultConfig{}) {
		return nil, nil
	}
	return fault.New(cfg, reg)
}

func newPipeline(m *sequential, stages int, reg *registry, in *injector, id int) (*pipeline, error) {
	pl, err := core.NewPipelineWith(m, core.PipelineConfig{Stages: stages, Obs: reg})
	if err != nil {
		return nil, err
	}
	pl.SetFaults(in, id)
	return pl, nil
}

func runBatch(ctx context.Context, pl *pipeline, b *batch, micro int) (float64, error) {
	return pl.RunBatchContext(ctx, b, micro)
}

// stageTimes returns the last batch's per-stage busy and wait time.
func stageTimes(pl *pipeline) (busy, wait []time.Duration) {
	for _, m := range pl.Metrics() {
		busy = append(busy, m.Busy)
		wait = append(wait, m.Wait)
	}
	return busy, wait
}

func newAverager(n int, init []*param, reg *registry, in *injector, m *mesh) *averager {
	a := core.NewAveragerObs(n, init, reg)
	a.SetFaults(in)
	if m != nil {
		a.AttachMesh(m)
	}
	return a
}

func avgSubmit(ctx context.Context, a *averager, p, round int, ps []*param) error {
	return a.SubmitContext(ctx, p, round, ps)
}
func avgDrain(ctx context.Context, a *averager) error            { return a.DrainContext(ctx) }
func avgWaitRound(ctx context.Context, a *averager, r int) error { return a.WaitRound(ctx, r) }
func avgDilute(a *averager, p int, ps []*param)                  { a.Dilute(p, ps) }
func avgClose(a *averager)                                       { a.Close() }

// trainerReference is the reference copy a facade trainer averages into.
func trainerReference(tr *trainer) []*tensor.Tensor { return tr.Averager().Reference() }
