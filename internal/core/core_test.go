package core

import (
	"context"
	"math"
	"testing"
	"time"

	"avgpipe/internal/autograd"
	"avgpipe/internal/cluster"
	"avgpipe/internal/comm"
	"avgpipe/internal/data"
	"avgpipe/internal/device"
	"avgpipe/internal/nn"
	"avgpipe/internal/optim"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// --- partitioner ---

func TestPartitionCoversAllLayersContiguously(t *testing.T) {
	w := workload.GNMT()
	for _, k := range []int{2, 3, 6} {
		stages := Partition(w, k, 0)
		if len(stages) != k {
			t.Fatalf("K=%d: got %d stages", k, len(stages))
		}
		if stages[0].First != 0 || stages[k-1].Last != len(w.Layers)-1 {
			t.Fatalf("K=%d: stages do not span all layers", k)
		}
		for s := 1; s < k; s++ {
			if stages[s].First != stages[s-1].Last+1 {
				t.Fatalf("K=%d: gap between stage %d and %d", k, s-1, s)
			}
		}
	}
}

func TestPartitionBalances(t *testing.T) {
	w := workload.BERT()
	k := 6
	stages := Partition(w, k, 0)
	var maxC, total float64
	for _, s := range stages {
		c := s.FwdFLOPs + s.BwdFLOPs
		total += c
		if c > maxC {
			maxC = c
		}
	}
	// The bottleneck stage must be within 60% of the ideal equal split
	// (layer granularity limits perfection).
	if ideal := total / float64(k); maxC > 1.6*ideal {
		t.Fatalf("bottleneck %v vs ideal %v: unbalanced", maxC, ideal)
	}
}

func TestPartitionIsOptimalOnSmallCase(t *testing.T) {
	// Layers with costs 1,9,1,1 into 2 stages: optimal max is 10 ([1,9|1,1]).
	w := &workload.Workload{Name: "tiny", BatchSize: 4, Layers: []workload.LayerCost{
		{Name: "a", FwdFLOPs: 0.5, BwdFLOPs: 0.5, ParamBytes: 1, OutActBytes: 1, StashBytes: 1},
		{Name: "b", FwdFLOPs: 4.5, BwdFLOPs: 4.5, ParamBytes: 1, OutActBytes: 1, StashBytes: 1},
		{Name: "c", FwdFLOPs: 0.5, BwdFLOPs: 0.5, ParamBytes: 1, OutActBytes: 1, StashBytes: 1},
		{Name: "d", FwdFLOPs: 0.5, BwdFLOPs: 0.5, ParamBytes: 1, OutActBytes: 1, StashBytes: 1},
	}}
	stages := Partition(w, 2, 0)
	if stages[0].Last != 1 {
		t.Fatalf("cut after layer %d, want 1", stages[0].Last)
	}
}

func TestPartitionModelLayers(t *testing.T) {
	b := PartitionModelLayers(5, 2)
	if b[0] != [2]int{0, 2} || b[1] != [2]int{2, 5} {
		t.Fatalf("bounds %v", b)
	}
	b = PartitionModelLayers(4, 4)
	for s, r := range b {
		if r[1]-r[0] != 1 || r[0] != s {
			t.Fatalf("bounds %v", b)
		}
	}
}

// --- elastic averager ---

// submit is SubmitContext for tests, failing the test on error.
func submit(t testing.TB, a *Averager, p, round int, ps []*nn.Param) {
	t.Helper()
	if err := a.SubmitContext(context.Background(), p, round, ps); err != nil {
		t.Fatalf("submit pipeline %d round %d: %v", p, round, err)
	}
}

// drain waits for every submitted update to apply; a wait past a
// generous bound fails the test instead of hanging it.
func drain(t testing.TB, a *Averager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.DrainContext(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// newTestPipeline builds an equal-layer AFP pipeline (nil advance =
// 1F1B), failing the test on a malformed config.
func newTestPipeline(t testing.TB, model *nn.Sequential, k int, advance []int) *Pipeline {
	t.Helper()
	pl, err := NewPipelineWith(model, PipelineConfig{Stages: k, Advance: advance})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// runBatch is RunBatchContext for tests, failing the test on error.
func runBatch(t testing.TB, pl *Pipeline, b *data.Batch, micro int) float64 {
	t.Helper()
	loss, err := pl.RunBatchContext(context.Background(), b, micro)
	if err != nil {
		t.Fatalf("run batch: %v", err)
	}
	return loss
}

func paramsOf(vals ...float32) []*nn.Param {
	ps := make([]*nn.Param, len(vals))
	for i, v := range vals {
		ps[i] = nn.NewParam("p", tensor.Full(v, 2))
	}
	return ps
}

func TestAveragerSingleRound(t *testing.T) {
	init := paramsOf(1)
	a := NewAveragerObs(2, init, nil)
	defer a.Close()
	// Two replicas start at 1, take local updates +1 and +3.
	r0, r1 := paramsOf(2), paramsOf(4)
	submit(t, a, 0, 0, r0)
	a.Dilute(0, r0)
	submit(t, a, 1, 0, r1)
	a.Dilute(1, r1)
	drain(t, a)
	// Reference: 1 + mean(1, 3) = 3.
	ref := a.Reference()
	if got := ref[0].At(0); got != 3 {
		t.Fatalf("reference = %v, want 3", got)
	}
	// Replica 0 was diluted with the reference value *at send time*
	// (async: before or after the round applied); with α=0.5 it lies
	// between (1-α)·2+α·1 = 1.5 and (1-α)·2+α·3 = 2.5.
	if got := r0[0].W.At(0); got < 1.5-1e-6 || got > 2.5+1e-6 {
		t.Fatalf("replica 0 dilution out of range: %v", got)
	}
}

func TestAveragerAlphaDefault(t *testing.T) {
	a := NewAveragerObs(4, paramsOf(0), nil)
	defer a.Close()
	if a.Alpha != 0.25 {
		t.Fatalf("alpha = %v, want 1/N", a.Alpha)
	}
}

func TestAveragerPullPreventsDivergence(t *testing.T) {
	// Two replicas repeatedly pushed apart by opposite updates must stay
	// bounded thanks to the elastic pull (§3.1, Fig. 5).
	init := paramsOf(0)
	a := NewAveragerObs(2, init, nil)
	defer a.Close()
	r0, r1 := paramsOf(0), paramsOf(0)
	for round := 0; round < 200; round++ {
		r0[0].W.AddInPlace(tensor.Full(1, 2))  // diverging update +1
		r1[0].W.AddInPlace(tensor.Full(-1, 2)) // diverging update −1
		submit(t, a, 0, round, r0)
		a.Dilute(0, r0)
		submit(t, a, 1, round, r1)
		a.Dilute(1, r1)
		drain(t, a)
	}
	gap := float64(r0[0].W.At(0) - r1[0].W.At(0))
	// Without the pull the gap would be 400; with α=1/2 it stays O(1/α).
	if gap > 10 {
		t.Fatalf("replicas diverged: gap %v", gap)
	}
}

func TestAveragerConservation(t *testing.T) {
	// When all replicas receive identical updates, the reference must
	// track them exactly and dilution must be a no-op in the limit.
	init := paramsOf(5)
	a := NewAveragerObs(3, init, nil)
	defer a.Close()
	reps := [][]*nn.Param{paramsOf(5), paramsOf(5), paramsOf(5)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for round := 0; round < 10; round++ {
		for p, r := range reps {
			r[0].W.AddInPlace(tensor.Full(1, 2))
			submit(t, a, p, round, r)
		}
		// Every replica dilutes toward the same closed round; diluting
		// while the reference loop is still applying it makes their
		// agreement depend on timing.
		if err := a.WaitRound(ctx, round); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for p, r := range reps {
			a.Dilute(p, r)
		}
	}
	drain(t, a)
	ref := a.Reference()
	if got := float64(ref[0].At(0)); math.Abs(got-15) > 1e-3 {
		t.Fatalf("reference %v, want 15", got)
	}
	// Replicas track the reference, and all replicas must agree since
	// their updates are identical.
	for p, r := range reps {
		got := float64(r[0].W.At(0))
		if math.Abs(got-15) > 2 {
			t.Fatalf("replica %d at %v, want within 2 of 15", p, got)
		}
		if other := float64(reps[0][0].W.At(0)); math.Abs(got-other) > 1e-4 {
			t.Fatalf("replicas diverged: %v vs %v", got, other)
		}
	}
}

func TestAveragerSendsNeverBlock(t *testing.T) {
	// One pipeline can run many rounds ahead without any other pipeline
	// reporting — the queues are asynchronous (§3.2 step ❸).
	a := NewAveragerObs(2, paramsOf(0), nil)
	defer a.Close()
	r0 := paramsOf(0)
	for round := 0; round < 50; round++ {
		r0[0].W.AddInPlace(tensor.Full(1, 2))
		submit(t, a, 0, round, r0) // must not block
		a.Dilute(0, r0)
	}
	drain(t, a)
	if a.PendingRounds() != 50 {
		t.Fatalf("expected 50 straggler rounds, got %d", a.PendingRounds())
	}
}

func TestAveragerSetReference(t *testing.T) {
	a := NewAveragerObs(2, paramsOf(0), nil)
	defer a.Close()
	restored := paramsOf(7)
	a.SetReference(restored)
	ref := a.Reference()
	if ref[0].At(0) != 7 {
		t.Fatalf("reference = %v, want 7", ref[0].At(0))
	}
	// The next round's deltas must be measured from the restored point:
	// a replica stepping from 7 to 8 contributes delta 1, not 8.
	reps := [][]*nn.Param{paramsOf(8), paramsOf(8)}
	for p, r := range reps {
		submit(t, a, p, 0, r)
	}
	drain(t, a)
	if got := a.Reference()[0].At(0); got != 8 {
		t.Fatalf("reference after round = %v, want 8", got)
	}
}

// --- pipelined runtime ---

func TestPipelineMatchesSequentialExecution(t *testing.T) {
	// The pipelined runtime (K stages, M micro-batches, dependency-driven
	// dispatch) must compute exactly the gradients of plain sequential
	// training on the same batch.
	task := workload.TranslationTask()
	seq := task.NewModel(7)
	pip := task.NewModel(7)
	gen := task.NewGen(11)
	batch := gen.NextBatch(8)

	seqLoss := workload.TrainStep(seq, batch)

	pl := newTestPipeline(t, pip, 2, nil)
	pipLoss := runBatch(t, pl, batch, 4)

	if math.Abs(seqLoss-pipLoss) > 1e-4 {
		t.Fatalf("loss mismatch: sequential %v vs pipelined %v", seqLoss, pipLoss)
	}
	sp, pp := seq.Params(), pip.Params()
	for i := range sp {
		if e := autograd.MaxRelError(pp[i].G, sp[i].G); e > 1e-2 {
			t.Fatalf("param %s grad rel error %v", sp[i].Name, e)
		}
	}
}

func TestPipelineAdvanceDoesNotChangeResults(t *testing.T) {
	// Advance forward propagation is a scheduling change only: gradients
	// must be identical regardless of the advance allowance.
	task := workload.TranslationTask()
	gen := task.NewGen(13)
	batch := gen.NextBatch(8)
	grads := func(advance []int) []*tensor.Tensor {
		m := task.NewModel(3)
		pl := newTestPipeline(t, m, 2, advance)
		runBatch(t, pl, batch, 4)
		out := make([]*tensor.Tensor, len(pl.Params()))
		for i, p := range pl.Params() {
			out[i] = p.G.Clone()
		}
		return out
	}
	a := grads(nil)
	b := grads([]int{2, 0})
	for i := range a {
		if e := autograd.MaxRelError(a[i], b[i]); e > 1e-3 {
			t.Fatalf("param %d: advance changed gradients (rel err %v)", i, e)
		}
	}
}

func TestPipelineMetricsAndStashBound(t *testing.T) {
	// The runtime must respect the schedule's activation-stash bound:
	// stage s may hold at most K−s+Advance[s] live contexts.
	task := workload.TranslationTask()
	gen := task.NewGen(21)
	batch := gen.NextBatch(16)
	const k, m = 2, 8
	for _, advance := range [][]int{nil, {3, 0}} {
		pl := newTestPipeline(t, task.NewModel(4), k, advance)
		runBatch(t, pl, batch, m)
		mets := pl.Metrics()
		if len(mets) != k {
			t.Fatalf("metrics for %d stages", len(mets))
		}
		for s, met := range mets {
			limit := k - s
			if advance != nil {
				limit += advance[s]
			}
			if limit > m {
				limit = m
			}
			if met.PeakInFlight > limit {
				t.Fatalf("advance %v stage %d: %d contexts in flight, limit %d",
					advance, s, met.PeakInFlight, limit)
			}
			if met.Fwd != m || met.Bwd != m {
				t.Fatalf("stage %d: %d fwd %d bwd, want %d each", s, met.Fwd, met.Bwd, m)
			}
			if met.Busy <= 0 {
				t.Fatalf("stage %d: no busy time recorded", s)
			}
		}
	}
	// With a larger allowance the first stage must actually run ahead
	// further than plain 1F1B's bound.
	pl := newTestPipeline(t, task.NewModel(4), k, []int{6, 0})
	runBatch(t, pl, batch, m)
	if got := pl.Metrics()[0].PeakInFlight; got <= k {
		t.Logf("note: advance allowance unused this run (peak %d); timing-dependent", got)
	}
}

func TestPipelineStageCount(t *testing.T) {
	task := workload.ClassificationTask()
	m := task.NewModel(1)
	pl := newTestPipeline(t, m, 3, nil)
	if len(pl.Stages) != 3 {
		t.Fatalf("stages %d", len(pl.Stages))
	}
	n := 0
	for _, s := range pl.Stages {
		n += len(s.Layers)
	}
	if n != len(m.Layers) {
		t.Fatal("stages must cover all layers")
	}
}

// --- trainer (end-to-end elastic averaging) ---

func TestTrainerConvergesOnTranslation(t *testing.T) {
	task := workload.TranslationTask()
	tr, err := NewTrainer(TrainerConfig{
		Task: task, Pipelines: 2, Micro: 4, StageCount: 2, Seed: 1, ClipNorm: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	loss0, _ := tr.Eval()
	for i := 0; i < 60; i++ {
		tr.Step()
	}
	loss1, acc1 := tr.Eval()
	if loss1 >= loss0*0.9 {
		t.Fatalf("elastic trainer not learning: %v -> %v", loss0, loss1)
	}
	if acc1 <= 0.15 {
		t.Fatalf("accuracy stuck at %v", acc1)
	}
}

func TestTrainerReplicasStayCoupled(t *testing.T) {
	task := workload.ClassificationTask()
	tr, err := NewTrainer(TrainerConfig{
		Task: task, Pipelines: 3, Micro: 2, StageCount: 2, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 10; i++ {
		tr.Step()
	}
	drain(t, tr.Averager())
	ref := tr.Averager().Reference()
	// Each replica's distance to the reference stays far below the
	// reference norm (the elastic pull keeps them in a neighbourhood).
	var refNorm float64
	for _, r := range ref {
		refNorm += r.L2Norm() * r.L2Norm()
	}
	refNorm = math.Sqrt(refNorm)
	for p, pl := range tr.Pipelines() {
		var d float64
		for i, pr := range pl.Params() {
			diff := tensor.Sub(pr.W, ref[i])
			d += diff.L2Norm() * diff.L2Norm()
		}
		d = math.Sqrt(d)
		if d > 0.5*refNorm {
			t.Fatalf("replica %d drifted: %v vs ref norm %v", p, d, refNorm)
		}
	}
}

// TestStepContextAfterCloseReturnsError: a closed trainer's averager
// refuses updates, and StepContext — the error-returning step — must
// report that from its pipeline goroutines in both dilution modes
// rather than panic the process.
func TestStepContextAfterCloseReturnsError(t *testing.T) {
	for _, async := range []bool{false, true} {
		tr, err := NewTrainer(TrainerConfig{
			Task: workload.TranslationTask(), Pipelines: 2, Micro: 2, StageCount: 2,
			Seed: 1, AsyncDilute: async,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.Close()
		if _, err := tr.StepContext(context.Background()); err == nil {
			t.Errorf("async=%v: StepContext after Close returned no error", async)
		}
	}
}

// --- stale trainer ---

func TestStaleTrainerZeroDelayMatchesSync(t *testing.T) {
	task := workload.ClassificationTask()
	st := NewStaleTrainer(task, 5, 0)
	// A reference synchronous run with the same seeds.
	m := task.NewModel(5)
	gen := task.NewGen(105)
	opt := optim.NewAdam(task.LR)
	for i := 0; i < 5; i++ {
		staleLoss := st.Step()
		b := gen.NextBatch(task.BatchSize)
		syncLoss := workload.TrainStep(m, b)
		optim.ClipGradNorm(m.Params(), 5)
		opt.Step(m.Params())
		nn.ZeroGrads(m.Params())
		if math.Abs(staleLoss-syncLoss) > 1e-5 {
			t.Fatalf("step %d: delay-0 stale %v != sync %v", i, staleLoss, syncLoss)
		}
	}
}

func TestStaleTrainerDelayHurtsEarlyProgress(t *testing.T) {
	task := workload.LangModelTask()
	steps := 120
	run := func(delay int) float64 {
		st := NewStaleTrainer(task, 3, delay)
		for i := 0; i < steps; i++ {
			st.Step()
		}
		loss, _ := st.Eval()
		return loss
	}
	fresh := run(0)
	stale := run(6) // PipeDream-like staleness on a deep pipeline
	if stale <= fresh {
		t.Fatalf("staleness should slow SGD convergence: fresh %v vs stale %v", fresh, stale)
	}
}

// --- Algorithm 1 (advance decision) ---

func afpFixture(actKB int64, bw float64) AFPConfig {
	ls := make([]workload.LayerCost, 4)
	for i := range ls {
		ls[i] = workload.LayerCost{Name: "l", FwdFLOPs: 1e9, BwdFLOPs: 2e9,
			ParamBytes: 4 << 20, OutActBytes: actKB << 10, StashBytes: 2 * actKB << 10}
	}
	w := &workload.Workload{Name: "syn", Layers: ls, BatchSize: 8, SatSamples: 0,
		OptimStateFactor: 1, MaxPipelines: 4}
	gpu := device.GPU{Name: "t", PeakFLOPs: 1e12, MemBytes: 32 << 30}
	link := comm.Link{Name: "l", BytesPerSec: bw}
	c := cluster.New(1, 4, gpu, link, link)
	stages := make([]workload.Stage, 4)
	for s := range stages {
		stages[s] = w.MakeStage(s, s)
	}
	return AFPConfig{Workload: w, Cluster: c, Stages: stages, Micro: 8, Pipes: 1}
}

func TestDecideAdvanceStaysAtZeroWithFastLinks(t *testing.T) {
	// §4.2: minimal communication overhead → advance_num stays 0 (1F1B).
	cfg := afpFixture(64, 1e15)
	adv, _, err := DecideAdvance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, a := range adv {
		if a != 0 {
			t.Fatalf("stage %d advance %d, want 0 with fast links", s, a)
		}
	}
}

func TestDecideAdvanceImprovesOnSlowLinks(t *testing.T) {
	cfg := afpFixture(192, 125e6)
	adv, best, err := DecideAdvance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, a := range adv {
		sum += a
	}
	if sum == 0 {
		t.Fatal("expected nonzero advance with slow links")
	}
	base, err := cfg.simulate(make([]int, 4))
	if err != nil {
		t.Fatal(err)
	}
	if best.Makespan >= base.Makespan {
		t.Fatalf("advance did not improve: %v vs 1F1B %v", best.Makespan, base.Makespan)
	}
}

func TestDecideAdvanceRespectsMemoryLimit(t *testing.T) {
	cfg := afpFixture(192, 125e6)
	// First find the unconstrained choice and its peak memory.
	_, free, err := DecideAdvance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cfg.simulate(make([]int, 4))
	if err != nil {
		t.Fatal(err)
	}
	if free.PeakMemory() <= base.PeakMemory() {
		t.Skip("advance added no memory; nothing to constrain")
	}
	// Constrain to just above 1F1B's peak: the decision must not exceed it.
	cfg.MemLimit = base.PeakMemory()
	_, constrained, err := DecideAdvance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, g := range constrained.PerGPU {
		if g.Memory.Total() > cfg.MemLimit {
			t.Fatalf("stage %d exceeds memory limit", s)
		}
	}
}
