package main

// Adapter: every call the end-to-end runs make into the program goes
// through the root avgpipe facade, and all of them are in this file. A
// PR that reshapes the facade breaks the benchmark here and nowhere
// else.

import (
	"context"
	"net/http"

	"avgpipe"
)

type (
	task          = avgpipe.Task
	trainerConfig = avgpipe.TrainerConfig
	trainer       = avgpipe.Trainer
	faultConfig   = avgpipe.FaultConfig
	batch         = avgpipe.Batch
	generator     = avgpipe.Generator
	sequential    = avgpipe.Sequential
	param         = avgpipe.Param
	mesh          = avgpipe.Mesh
	server        = avgpipe.InferenceServer
)

func translationTask() *task    { return avgpipe.TranslationTask() }
func classificationTask() *task { return avgpipe.ClassificationTask() }
func langModelTask() *task      { return avgpipe.LangModelTask() }

// newTrainer builds a trainer the way a user of the library would: the
// workload's geometry and seed, zero values for everything else. In
// particular Compiled and Obs stay unset, so whatever execution path
// and registry the library defaults to is what gets measured. A non-nil
// mesh makes it replica `replica` of a dist-mode job.
func newTrainer(t *task, n, k, m int, seed int64, clip float64, faults faultConfig, replica int, fabric *mesh) (*trainer, error) {
	cfg := trainerConfig{
		Task: t, Pipelines: n, StageCount: k, Micro: m,
		Seed: seed, ClipNorm: clip, Faults: faults,
	}
	if fabric != nil {
		cfg.Dist = &avgpipe.DistConfig{ReplicaID: replica, Mesh: fabric}
	}
	return avgpipe.NewTrainer(cfg)
}

func trainerStep(ctx context.Context, tr *trainer) (float64, error) { return tr.StepContext(ctx) }

func trainerEvalLoss(tr *trainer) float64 {
	loss, _ := tr.Eval()
	return loss
}

func saveCheckpoint(tr *trainer, dir string) error    { return tr.SaveCheckpoint(dir) }
func restoreCheckpoint(tr *trainer, dir string) error { return tr.Restore(dir) }

// newServer starts an inference server with the library's default
// batching knobs (MaxBatch 8, MaxLinger 2ms, 2 workers).
func newServer(t *task) (*server, error) {
	return avgpipe.NewInferenceServer(avgpipe.ServeConfig{Task: t})
}

func serverHandler(s *server) http.Handler { return s.Handler() }

func serverPredict(ctx context.Context, s *server, tokens []int) (*avgpipe.ServeResult, error) {
	return s.Predict(ctx, tokens)
}

// evalLogits is the reference a served response must match bit for bit:
// an eval-mode interpreter forward of one sequence.
func evalLogits(m *sequential, tokens []int) *avgpipe.Tensor {
	x := avgpipe.NewTensor(len(tokens), 1)
	for i, tok := range tokens {
		x.Set(float32(tok), i, 0)
	}
	return m.Forward(avgpipe.NewContext(), x, false)
}

// newWideLangModel is the stock langmodel network (2×LSTM with
// recurrent DropConnect on the first, Linear head) behind an input
// embedding of `rows` rows instead of 16.
func newWideLangModel(seed int64, rows, dim, seqLen, classes int) *sequential {
	g := avgpipe.NewRNG(seed)
	l1 := avgpipe.NewLSTM(g, dim, dim, seqLen)
	l1.RecurrentDropP = 0.1
	l2 := avgpipe.NewLSTM(g, dim, dim, seqLen)
	return avgpipe.NewSequential(
		avgpipe.NewEmbedding(g, rows, dim),
		l1,
		l2,
		avgpipe.NewLinear(g, dim, classes),
	)
}

// initialEvalLoss is what Trainer.Eval returns before any round: the
// seeded model on the held-out batch of the stream seeded seed+999.
func initialEvalLoss(t *task, seed int64) float64 {
	loss, _ := avgpipe.Evaluate(t.NewModel(seed), t.NewGen(seed+999).EvalBatch(), t.PerPosition)
	return loss
}

func newRNG(seed int64) *avgpipe.RNG { return avgpipe.NewRNG(seed) }
