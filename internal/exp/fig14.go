package exp

import (
	"fmt"

	"avgpipe/internal/core"
	"avgpipe/internal/nn"
	"avgpipe/internal/optim"
	"avgpipe/internal/workload"
)

// SmallEpochBatches defines an "epoch" for the scaled-down statistical-
// efficiency tasks: 20 batches of data.
const SmallEpochBatches = 20

// Fig14Caps bounds each task's search for the convergence target, in
// data batches.
var Fig14Caps = map[string]int{
	"translation":    1200,
	"classification": 1200,
	"langmodel":      1200,
}

// StatEffRun is one system's statistical-efficiency measurement: how many
// data batches (and therefore epochs) real training needed to reach the
// task's target metric.
type StatEffRun struct {
	System  string
	Batches int
	Epochs  float64
	Reached bool
	// Final metrics at stop time.
	Loss, Acc float64
}

// measure runs `step` (which consumes and reports data batches per call)
// until the eval closure reports the target, or the cap is hit.
func measure(system string, cap int, batchesPerStep int, step func() error, eval func() (loss, acc float64, reached bool)) StatEffRun {
	run := StatEffRun{System: system}
	for run.Batches < cap {
		for i := 0; i < 5; i++ {
			if err := step(); err != nil {
				panic(err)
			}
			run.Batches += batchesPerStep
		}
		loss, acc, reached := eval()
		run.Loss, run.Acc = loss, acc
		if reached {
			run.Reached = true
			break
		}
	}
	run.Epochs = float64(run.Batches) / SmallEpochBatches
	return run
}

// StatEff measures statistical efficiency on one task for the four
// training semantics the paper compares: synchronous single-model
// (PyTorch and the synchronous pipelines), PipeDream's multi-version
// staleness, PipeDream-2BW's bounded staleness, and AvgPipe's elastic
// averaging over N parallel pipelines.
func StatEff(task *workload.Task, pipeDreamDelay int, avgPipeN int, seed int64) []StatEffRun {
	cap := Fig14Caps[task.Name]
	var runs []StatEffRun

	// Synchronous baseline (PyTorch / GPipe / Dapple semantics).
	{
		m := task.NewModel(seed)
		gen := task.NewGen(seed + 100)
		var opt optim.Optimizer
		if task.UseSGD {
			opt = optim.NewSGD(task.LR)
		} else {
			opt = optim.NewAdam(task.LR)
		}
		eval := func() (float64, float64, bool) {
			l, a := workload.Evaluate(m, gen.EvalBatch(), task.PerPosition)
			return l, a, task.Reached(l, a)
		}
		runs = append(runs, measure(SysPyTorch, cap, 1, func() error {
			b := gen.NextBatch(task.BatchSize)
			workload.TrainStep(m, b)
			optim.ClipGradNorm(m.Params(), 5)
			opt.Step(m.Params())
			nn.ZeroGrads(m.Params())
			return nil
		}, eval))
	}

	// PipeDream: deep staleness (K−1 versions).
	for _, sys := range []struct {
		name  string
		delay int
	}{{SysPipeDream, pipeDreamDelay}, {Sys2BW, 1}} {
		st := core.NewStaleTrainer(task, seed, sys.delay)
		eval := func() (float64, float64, bool) {
			l, a := st.Eval()
			return l, a, task.Reached(l, a)
		}
		runs = append(runs, measure(sys.name, cap, 1, func() error {
			st.Step()
			return nil
		}, eval))
	}

	// AvgPipe: N elastic-averaged pipelines, each consuming a batch per
	// round.
	{
		tr, err := core.NewTrainer(core.TrainerConfig{
			Task: task, Pipelines: avgPipeN, Micro: 2, StageCount: 2,
			Seed: seed, ClipNorm: 5,
		})
		if err != nil {
			panic(err)
		}
		defer tr.Close()
		eval := func() (float64, float64, bool) {
			l, a := tr.Eval()
			return l, a, task.Reached(l, a)
		}
		runs = append(runs, measure(SysAvgPipe, cap, avgPipeN, func() error {
			tr.Step()
			return nil
		}, eval))
	}
	return runs
}

// Fig14 reproduces the statistical-efficiency comparison on one task.
// taskIdx picks the workload analog: 0 = translation (GNMT),
// 1 = classification (BERT), 2 = language modeling (AWD).
func Fig14(taskIdx int) *Table {
	task := workload.Tasks()[taskIdx]
	// Paper pipeline depths: 6 GPUs for GNMT/BERT, 4 for AWD.
	delay := 5
	if taskIdx == 2 {
		delay = 3
	}
	runs := StatEff(task, delay, 2, 42)
	t := &Table{
		Title:  fmt.Sprintf("Figure 14: Statistical Efficiency — %s (real training)", task.Name),
		Header: []string{"system", "batches", "epochs", "reached", "loss", "acc"},
	}
	for _, r := range runs {
		reached := "yes"
		if !r.Reached {
			reached = "NO (cap)"
		}
		t.AddRow(r.System, fmt.Sprint(r.Batches), f2(r.Epochs), reached, f3(r.Loss), f3(r.Acc))
	}
	t.Remarks = append(t.Remarks,
		"target: "+targetString(task),
		"PipeDream = multi-version staleness; 2BW = bounded staleness; AvgPipe = elastic averaging, N=2")
	return t
}

func targetString(task *workload.Task) string {
	if task.TargetAccuracy > 0 {
		return fmt.Sprintf("accuracy ≥ %.2f", task.TargetAccuracy)
	}
	return fmt.Sprintf("loss ≤ %.2f", task.TargetLoss)
}
