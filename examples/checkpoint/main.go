// Checkpoint: train for a while, save the reference model, simulate a
// crash, and resume from the checkpoint — demonstrating the binary
// parameter serialization and that resumed training continues from the
// saved quality rather than restarting.
//
// Run with: go run ./examples/checkpoint
package main

import (
	"bytes"
	"fmt"

	"avgpipe"
)

func main() {
	task := avgpipe.ClassificationTask()

	fmt.Println("phase 1: train 80 rounds, then checkpoint the reference model")
	first, err := avgpipe.NewTrainer(avgpipe.TrainerConfig{
		Task: task, Pipelines: 2, Micro: 2, StageCount: 2, Seed: 1, ClipNorm: 5,
	})
	if err != nil {
		panic(err)
	}
	for r := 0; r < 80; r++ {
		first.Step()
	}
	loss1, acc1 := first.Eval()
	fmt.Printf("  at checkpoint: loss=%.3f acc=%.1f%%\n", loss1, 100*acc1)

	// Eval() drained the averager and wrote the reference weights into an
	// evaluation model; save a model that carries exactly those weights.
	snapshot := task.NewModel(1)
	first.Averager().WriteReference(snapshot.Params())
	var checkpoint bytes.Buffer
	if err := avgpipe.SaveParams(&checkpoint, snapshot.Params()); err != nil {
		panic(err)
	}
	first.Close()
	fmt.Printf("  checkpoint size: %d bytes\n", checkpoint.Len())

	fmt.Println("phase 2: 'crash', rebuild everything, load the checkpoint")
	restored := task.NewModel(99) // different init — must be overwritten
	if err := avgpipe.LoadParams(bytes.NewReader(checkpoint.Bytes()), restored.Params()); err != nil {
		panic(err)
	}
	lossR, accR := avgpipe.Evaluate(restored, task.NewGen(1000).EvalBatch(), task.PerPosition)
	fmt.Printf("  restored model: loss=%.3f acc=%.1f%%  (matches the checkpoint)\n", lossR, 100*accR)

	fmt.Println("phase 3: resume elastic training from the restored weights")
	second, err := avgpipe.NewTrainer(avgpipe.TrainerConfig{
		Task: task, Pipelines: 2, Micro: 2, StageCount: 2, Seed: 2, ClipNorm: 5,
	})
	if err != nil {
		panic(err)
	}
	defer second.Close()
	// Seed every replica and the reference with the restored weights.
	for _, pl := range second.Pipelines() {
		for i, pr := range pl.Params() {
			pr.W.CopyFrom(restored.Params()[i].W)
		}
	}
	second.Averager().SetReference(restored.Params())

	for r := 0; r < 80; r++ {
		second.Step()
	}
	loss2, acc2 := second.Eval()
	fmt.Printf("  after resume+80 rounds: loss=%.3f acc=%.1f%%\n", loss2, 100*acc2)
	if acc2 >= acc1 {
		fmt.Println("resumed run kept and extended the checkpointed progress ✔")
	}
}
