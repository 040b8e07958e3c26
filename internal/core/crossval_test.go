package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"avgpipe/internal/autograd"
	"avgpipe/internal/cluster"
	"avgpipe/internal/comm"
	"avgpipe/internal/device"
	"avgpipe/internal/pipesim"
	"avgpipe/internal/sched"
	"avgpipe/internal/workload"
)

// crossValSchedules are the paper's three schedule families at one
// geometry, used to cross-validate runtime vs simulator vs analysis.
func crossValSchedules(k, m int) []*sched.Schedule {
	advance := make([]int, k)
	for s := range advance {
		advance[s] = k - 1 - s // legal taper
	}
	return []*sched.Schedule{
		sched.AFAB(k, m, 1),
		sched.OneFOneB(k, m, 1),
		sched.AFP(k, m, 1, advance),
	}
}

// simFixture builds a k-layer synthetic workload on a k-GPU cluster so
// the same sched.Schedule can run through pipesim.
func simFixture(k, batch int) (*workload.Workload, *cluster.Cluster, []workload.Stage) {
	layers := make([]workload.LayerCost, k)
	for i := range layers {
		layers[i] = workload.LayerCost{Name: "l", FwdFLOPs: 1e9, BwdFLOPs: 2e9,
			ParamBytes: 4 << 20, OutActBytes: 64 << 10, StashBytes: 128 << 10}
	}
	w := &workload.Workload{Name: "xval", Layers: layers, BatchSize: batch, OptimStateFactor: 1}
	gpu := device.GPU{Name: "t", PeakFLOPs: 1e12, MemBytes: 32 << 30}
	link := comm.Link{Name: "l", BytesPerSec: 1e9}
	c := cluster.New(1, k, gpu, link, link)
	stages := make([]workload.Stage, k)
	for s := range stages {
		stages[s] = w.MakeStage(s, s)
	}
	return w, c, stages
}

// TestCrossValidationRuntimeSimAnalysis runs the same schedule through
// the real runtime (core.Pipeline on real tensors) and the simulator
// (pipesim on the cost model), asserting that both report exactly the
// schedule's analytic per-stage op counts and stash high-water marks —
// the sim-vs-real contract the shared sched.Analysis defines.
func TestCrossValidationRuntimeSimAnalysis(t *testing.T) {
	task := workload.TranslationTask()
	const k, m = 2, 8
	gen := task.NewGen(31)
	batch := gen.NextBatch(16)
	w, c, stages := simFixture(k, m)

	for _, s := range crossValSchedules(k, m) {
		an, err := sched.Analyze(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		// Real runtime.
		pl, err := NewPipelineFromSchedule(task.NewModel(9), s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		runBatch(t, pl, batch, m)
		for st, met := range pl.Metrics() {
			if met.Fwd != an.Fwd[st] || met.Bwd != an.Bwd[st] {
				t.Errorf("%s runtime stage %d: %dF %dB, analysis %dF %dB",
					s.Name, st, met.Fwd, met.Bwd, an.Fwd[st], an.Bwd[st])
			}
			if met.PeakInFlight != an.MaxInFlight[st] {
				t.Errorf("%s runtime stage %d: peak in-flight %d, analysis %d",
					s.Name, st, met.PeakInFlight, an.MaxInFlight[st])
			}
		}
		// Simulator (one pipeline, one batch: same plan verbatim).
		r, err := pipesim.Run(pipesim.Config{
			Workload: w, Cluster: c, Stages: stages,
			Micro: m, Pipelines: 1, Schedule: s, Batches: 1,
		})
		if err != nil {
			t.Fatalf("%s sim: %v", s.Name, err)
		}
		for st, g := range r.PerGPU {
			if g.Fwd != an.Fwd[st] || g.Bwd != an.Bwd[st] {
				t.Errorf("%s sim stage %d: %dF %dB, analysis %dF %dB",
					s.Name, st, g.Fwd, g.Bwd, an.Fwd[st], an.Bwd[st])
			}
			if g.PeakInFlight != an.MaxInFlight[st] {
				t.Errorf("%s sim stage %d: peak in-flight %d, analysis %d",
					s.Name, st, g.PeakInFlight, an.MaxInFlight[st])
			}
		}
	}
}

// TestCrossValidationSplitBackward extends the three-way contract to
// split schedules: for each schedule family, the 2BP-split variant must
// agree across sched.Analyze, pipesim, and the runtime on
// forward, grad-input, and grad-weight op counts and on the stash
// high-water mark (which a split backward holds until BwdW).
func TestCrossValidationSplitBackward(t *testing.T) {
	task := workload.TranslationTask()
	const k, m = 2, 8
	batch := task.NewGen(31).NextBatch(16)
	w, c, stages := simFixture(k, m)

	advance := make([]int, k)
	for s := range advance {
		advance[s] = k - 1 - s
	}
	plans := []sched.Plan{sched.AFABPlan(), sched.OneFOneBPlan(), sched.AFPPlan(advance)}
	for _, plan := range plans {
		split := sched.SplitBackward(plan.Make(k, m))
		an, err := sched.Analyze(split)
		if err != nil {
			t.Fatalf("%s split: %v", split.Name, err)
		}
		for st := 0; st < k; st++ {
			if an.Bwd[st] != m || an.BwdW[st] != m {
				t.Fatalf("%s split analysis stage %d: %dBi %dBw, want %d each",
					split.Name, st, an.Bwd[st], an.BwdW[st], m)
			}
		}

		// Runtime: the pipeline splits the plan itself, so its effective
		// schedule must match the explicit split.
		pl, err := NewPipelineWith(task.NewModel(9), PipelineConfig{Stages: k, Plan: plan})
		if err != nil {
			t.Fatalf("%s: %v", plan.Name, err)
		}
		runBatch(t, pl, batch, m)
		for st, met := range pl.Metrics() {
			if met.Fwd != an.Fwd[st] || met.Bwd != an.Bwd[st] || met.BwdW != an.BwdW[st] {
				t.Errorf("%s runtime stage %d: %dF %dBi %dBw, analysis %dF %dBi %dBw",
					split.Name, st, met.Fwd, met.Bwd, met.BwdW, an.Fwd[st], an.Bwd[st], an.BwdW[st])
			}
			if met.PeakInFlight != an.MaxInFlight[st] {
				t.Errorf("%s runtime stage %d: peak in-flight %d, analysis %d",
					split.Name, st, met.PeakInFlight, an.MaxInFlight[st])
			}
		}

		// Simulator on the explicit split schedule.
		r, err := pipesim.Run(pipesim.Config{
			Workload: w, Cluster: c, Stages: stages,
			Micro: m, Pipelines: 1, Schedule: split, Batches: 1,
		})
		if err != nil {
			t.Fatalf("%s sim: %v", split.Name, err)
		}
		for st, g := range r.PerGPU {
			if g.Fwd != an.Fwd[st] || g.Bwd != an.Bwd[st] || g.BwdW != an.BwdW[st] {
				t.Errorf("%s sim stage %d: %dF %dBi %dBw, analysis %dF %dBi %dBw",
					split.Name, st, g.Fwd, g.Bwd, g.BwdW, an.Fwd[st], an.Bwd[st], an.BwdW[st])
			}
			if g.PeakInFlight != an.MaxInFlight[st] {
				t.Errorf("%s sim stage %d: peak in-flight %d, analysis %d",
					split.Name, st, g.PeakInFlight, an.MaxInFlight[st])
			}
		}
	}
}

// TestScheduleInterpreterMatchesSequential proves AFAB, 1F1B, and AFP
// all train the real task end-to-end through NewPipelineFromSchedule:
// each schedule's loss and gradients equal plain sequential training.
func TestScheduleInterpreterMatchesSequential(t *testing.T) {
	task := workload.TranslationTask()
	gen := task.NewGen(11)
	batch := gen.NextBatch(8)
	seq := task.NewModel(7)
	seqLoss := workload.TrainStep(seq, batch)
	sp := seq.Params()

	const k, m = 2, 4
	for _, s := range crossValSchedules(k, m) {
		pip := task.NewModel(7)
		pl, err := NewPipelineFromSchedule(pip, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		pipLoss := runBatch(t, pl, batch, m)
		if math.Abs(seqLoss-pipLoss) > 1e-4 {
			t.Fatalf("%s: loss %v vs sequential %v", s.Name, pipLoss, seqLoss)
		}
		pp := pip.Params()
		for i := range sp {
			if e := autograd.MaxRelError(pp[i].G, sp[i].G); e > 1e-2 {
				t.Fatalf("%s: param %s grad rel error %v", s.Name, sp[i].Name, e)
			}
		}
	}
}

func TestNewPipelineFromScheduleRejectsIllegal(t *testing.T) {
	task := workload.TranslationTask()
	// Cross-stage warmup inversion: locally valid per GPU, deadlocks
	// across stages.
	dead := &sched.Schedule{Name: "inverted", PerGPU: [][]sched.Op{
		{{Kind: sched.Fwd, Micro: 0}, {Kind: sched.Bwd, Micro: 0}, {Kind: sched.Fwd, Micro: 1}, {Kind: sched.Bwd, Micro: 1}},
		{{Kind: sched.Fwd, Micro: 0}, {Kind: sched.Fwd, Micro: 1}, {Kind: sched.Bwd, Micro: 0}, {Kind: sched.Bwd, Micro: 1}},
	}}
	if _, err := NewPipelineFromSchedule(task.NewModel(1), dead); err == nil {
		t.Fatal("interpreter accepted a deadlocking schedule")
	}
	// Micro indices not starting at 0 cannot address a batch slice.
	offset := &sched.Schedule{Name: "offset", PerGPU: [][]sched.Op{
		{{Kind: sched.Fwd, Micro: 1}, {Kind: sched.Bwd, Micro: 1}},
	}}
	if _, err := NewPipelineFromSchedule(task.NewModel(1), offset); err == nil {
		t.Fatal("interpreter accepted non-contiguous micro indices")
	}
}

// TestPipelineTraceMatchesSchedule checks the Trace satellite: with
// Trace set, every executed op is recorded in schedule order and the
// Chrome-trace export shares pipesim's event shape.
func TestPipelineTraceMatchesSchedule(t *testing.T) {
	task := workload.TranslationTask()
	gen := task.NewGen(5)
	batch := gen.NextBatch(8)
	const k, m = 2, 4
	pl, err := NewPipelineWith(task.NewModel(2), PipelineConfig{Stages: k, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	runBatch(t, pl, batch, m)
	schedule, an := pl.ScheduleFor(m)
	for s, met := range pl.Metrics() {
		if len(met.Ops) != len(schedule.PerGPU[s]) {
			t.Fatalf("stage %d traced %d ops, schedule has %d", s, len(met.Ops), len(schedule.PerGPU[s]))
		}
		for i, ev := range met.Ops {
			op := schedule.PerGPU[s][i]
			if ev.Index != i || ev.Kind != op.Kind || ev.Micro != op.Micro {
				t.Fatalf("stage %d op %d: traced %v%d, schedule %s", s, i, ev.Kind, ev.Micro+1, op)
			}
			if ev.Dur <= 0 {
				t.Fatalf("stage %d op %d: no duration recorded", s, i)
			}
		}
	}
	var buf bytes.Buffer
	if err := pl.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []pipesim.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	// One process row, k thread rows, and per scheduled op one span plus
	// one flow point (the arrow chain linking each micro across stages).
	if want := 1 + k + 2*an.TotalOps(); len(doc.TraceEvents) != want {
		t.Fatalf("trace has %d events, want %d", len(doc.TraceEvents), want)
	}
	// Untraced runs record no per-op events.
	pl2 := newTestPipeline(t, task.NewModel(2), k, nil)
	runBatch(t, pl2, batch, m)
	if n := len(pl2.Metrics()[0].Ops); n != 0 {
		t.Fatalf("untraced run recorded %d op events", n)
	}
}

// TestCostAwarePartitionThroughTrainer checks the partition satellite:
// the cost-aware mode produces a valid, cost-balanced split and trains
// through the Trainer config surface.
func TestCostAwarePartitionThroughTrainer(t *testing.T) {
	task := workload.TranslationTask()
	model := task.NewModel(3)
	k := 2
	bounds := PartitionModelCost(model, k)
	if bounds[0][0] != 0 || bounds[k-1][1] != len(model.Layers) {
		t.Fatalf("cost bounds %v do not span the model", bounds)
	}
	for s := 1; s < k; s++ {
		if bounds[s][0] != bounds[s-1][1] {
			t.Fatalf("cost bounds %v not contiguous", bounds)
		}
	}
	// The DP must balance parameter mass at least as well as the
	// equal-layer split does.
	mass := func(b [2]int) (n int) {
		for _, l := range model.Layers[b[0]:b[1]] {
			for _, p := range l.Params() {
				n += p.NumElements()
			}
		}
		return
	}
	worst := func(bs [][2]int) (w int) {
		for _, b := range bs {
			if m := mass(b); m > w {
				w = m
			}
		}
		return
	}
	if c, e := worst(bounds), worst(PartitionModelLayers(len(model.Layers), k)); c > e {
		t.Fatalf("cost-aware bottleneck %d params > equal-layer %d", c, e)
	}

	tr, err := NewTrainer(TrainerConfig{
		Task: task, Pipelines: 2, Micro: 2, StageCount: 2, Seed: 3,
		Partition: PartitionCostAware, Plan: sched.AFABPlan(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	loss0 := tr.Step()
	var loss1 float64
	for i := 0; i < 15; i++ {
		loss1 = tr.Step()
	}
	if !(loss1 < loss0) {
		t.Fatalf("cost-partitioned AFAB trainer not learning: %v -> %v", loss0, loss1)
	}
}

// TestTrainerPlanThreading checks that TrainerConfig.Plan reaches the
// replica pipelines: an AFAB-planned trainer's stages show AFAB
// occupancy (every stage stashes all M micro-batches).
func TestTrainerPlanThreading(t *testing.T) {
	task := workload.ClassificationTask()
	const m = 4
	tr, err := NewTrainer(TrainerConfig{
		Task: task, Pipelines: 1, Micro: m, StageCount: 2, Seed: 4,
		Plan: sched.AFABPlan(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Step()
	for s, met := range tr.Pipelines()[0].Metrics() {
		if met.PeakInFlight != m {
			t.Fatalf("AFAB stage %d: peak in-flight %d, want %d", s, met.PeakInFlight, m)
		}
	}
}
