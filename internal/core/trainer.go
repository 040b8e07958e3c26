package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"avgpipe/internal/data"
	"avgpipe/internal/fault"
	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/optim"
	"avgpipe/internal/sched"
	"avgpipe/internal/workload"
)

// TrainerConfig configures an elastic-averaging training run on a real
// (scaled-down) workload task.
type TrainerConfig struct {
	Task *workload.Task
	// Pipelines is N; Micro is M; StageCount is K (the pipeline depth).
	Pipelines  int
	Micro      int
	StageCount int
	// Advance is the per-stage advance-forward allowance (nil = 1F1B),
	// consumed by the default AFP schedule plan.
	Advance []int
	// Plan selects the pipeline schedule family every replica executes
	// (sched.AFABPlan, sched.OneFOneBPlan, sched.AFPPlan, ...). The zero
	// value means AFP with Advance — i.e. 1F1B when Advance is nil.
	Plan sched.Plan
	// Partition selects the layer→stage assignment policy: equal layer
	// counts (default) or the cost-aware PipeDream DP.
	Partition PartitionMode
	// Trace records per-op timestamps in every pipeline's StageMetrics.
	Trace bool
	// Seed derives all replica initializations and data streams.
	Seed int64
	// ClipNorm, when > 0, applies global gradient-norm clipping.
	ClipNorm float64
	// Alpha overrides the elastic coefficient (0 = the 1/N default).
	Alpha float64
	// AsyncDilute dilutes each replica immediately after its local step
	// against whatever reference is current, instead of waiting for the
	// round's updates to apply (§3.2's fully asynchronous mode; the
	// synchronous round is the default because it removes the one-round
	// reference lag). Exposed for the ablation study.
	AsyncDilute bool
	// Obs selects the metrics registry the trainer, its pipelines, and
	// the averager record into (nil = obs.Default()).
	Obs *obs.Registry
	// Faults declares the deterministic fault schedule injected into the
	// run (zero value = no faults): delayed/dropped averaging updates,
	// straggler stages, and a scripted replica crash/rejoin.
	Faults fault.Config
	// RoundDeadline bounds how long an averaging round waits for
	// stragglers before closing over the updates that arrived (0 = wait
	// forever). Required for training to make progress past dropped
	// updates.
	RoundDeadline time.Duration
	// Watchdog arms every pipeline's liveness monitor: a batch during
	// which no op retires for this window fails with a *StallError
	// instead of hanging (0 = no watchdog).
	Watchdog time.Duration
	// Dist, when set, runs this process as ONE replica of a multi-process
	// elastic-averaging job: only Dist.ReplicaID's pipeline is built
	// locally, updates fan out to the peers over Dist.Mesh, and each
	// round ends with the distributed round barrier instead of a local
	// drain. Pipelines is still the job's TOTAL replica count N.
	Dist *DistConfig
	// Compress selects the update wire codec (net.CodecNone = exact f32
	// deltas, the default; q8/q16/topk compress each update with error
	// feedback — see Averager.SetCompression). In dist mode every
	// connected peer must advertise support for the codec.
	Compress netx.Codec
	// TopK is the kept-coefficient fraction for net.CodecTopK in (0, 1]
	// (0 = net.DefaultTopKFraction); other codecs ignore it.
	TopK float64
}

// DistConfig identifies this process within a multi-process job.
type DistConfig struct {
	// ReplicaID is this process's pipeline index in [0, Pipelines).
	ReplicaID int
	// Mesh is the formed averaging fabric connecting the job's replicas
	// (net.FormTopologyOn, under any topology). Its Self must equal
	// ReplicaID and its N must equal Pipelines. The trainer attaches it
	// to its averager and closes it with the trainer.
	Mesh *netx.Mesh
}

// Trainer runs N parallel pipelines, each training a replica on its own
// batch stream, coupled through the elastic-averaging reference model.
// It is the end-to-end AvgPipe runtime on real tensors.
type Trainer struct {
	cfg       TrainerConfig
	pipelines []*Pipeline
	gens      []data.Generator
	opts      []optim.Optimizer
	avg       *Averager
	evalModel *nn.Sequential
	evalGen   data.Generator
	round     int

	// faults scripts the run's injected failures (nil = none); detached
	// marks replicas currently crashed out of the averaging set.
	faults   *fault.Injector
	detached []bool

	stepLog *obs.JSONL

	stepSec       *obs.Histogram
	samplesTotal  *obs.Counter
	tokensTotal   *obs.Counter
	samplesPerSec *obs.Gauge
	tokensPerSec  *obs.Gauge
	lossGauge     *obs.Gauge
	roundGauge    *obs.Gauge
}

// StepRecord is one structured JSONL line per training round — the
// step/epoch log the internal/exp figure harness and offline plotting
// consume.
type StepRecord struct {
	Round       int     `json:"round"`
	Loss        float64 `json:"loss"`
	StepSeconds float64 `json:"step_seconds"`
	Samples     int     `json:"samples"`
	Tokens      int     `json:"tokens"`
	SamplesPerS float64 `json:"samples_per_sec"`
	TokensPerS  float64 `json:"tokens_per_sec"`
	OpenRounds  int     `json:"open_rounds"`
	Live        int     `json:"live_replicas"`
	// Losses lists every pipeline's local loss for the round, indexed by
	// pipeline (zero for detached replicas). A dist-mode process only
	// runs one pipeline, so its records carry Replica and the local Loss
	// instead: comparing that Loss against a single-process run's
	// Losses[Replica] is the bitwise-determinism check.
	Losses  []float64 `json:"losses,omitempty"`
	Replica int       `json:"replica"`
	// ReplicaID attributes the record in merged multi-process streams:
	// the owning replica's id in dist mode, -1 for a single-process run
	// (where every replica is local and Losses carries the breakdown).
	ReplicaID int `json:"replica_id"`
}

// NewTrainer builds the replicas, data streams, optimizers, and the
// reference model. All replicas start from the same initialization (the
// usual elastic-averaging warm start). A malformed config — missing
// task, non-positive dimensions, invalid fault schedule, bad pipeline
// geometry — is an error, not a panic, so callers can degrade
// gracefully.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	if cfg.Task == nil {
		return nil, errors.New("core: trainer config needs a Task")
	}
	if cfg.Pipelines <= 0 || cfg.Micro <= 0 || cfg.StageCount <= 0 {
		return nil, fmt.Errorf("core: trainer needs positive Pipelines/Micro/StageCount, got %d/%d/%d",
			cfg.Pipelines, cfg.Micro, cfg.StageCount)
	}
	if d := cfg.Dist; d != nil {
		if d.Mesh == nil {
			return nil, errors.New("core: DistConfig needs a formed Mesh")
		}
		if d.ReplicaID < 0 || d.ReplicaID >= cfg.Pipelines {
			return nil, fmt.Errorf("core: dist replica id %d outside [0, %d)", d.ReplicaID, cfg.Pipelines)
		}
		if d.Mesh.Self != d.ReplicaID || d.Mesh.N != cfg.Pipelines {
			return nil, fmt.Errorf("core: mesh is replica %d of %d, config says replica %d of %d",
				d.Mesh.Self, d.Mesh.N, d.ReplicaID, cfg.Pipelines)
		}
	}
	t := &Trainer{cfg: cfg, detached: make([]bool, cfg.Pipelines)}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	if cfg.Faults != (fault.Config{}) {
		in, err := fault.New(cfg.Faults, cfg.Obs)
		if err != nil {
			return nil, err
		}
		t.faults = in
	}
	// In dist mode every trainer metric carries this process's replica
	// label, so the telemetry collector can merge N processes' streams
	// without relabeling collisions.
	var lbl []string
	if cfg.Dist != nil {
		lbl = []string{"replica", fmt.Sprint(cfg.Dist.ReplicaID)}
	}
	t.stepSec = reg.Histogram("avgpipe_train_step_seconds",
		"Wall time of one training round across all pipelines.", nil, lbl...)
	t.samplesTotal = reg.Counter("avgpipe_train_samples_total", "Training examples consumed.", lbl...)
	t.tokensTotal = reg.Counter("avgpipe_train_tokens_total", "Training targets (tokens) consumed.", lbl...)
	t.samplesPerSec = reg.Gauge("avgpipe_train_samples_per_second", "Throughput of the last round.", lbl...)
	t.tokensPerSec = reg.Gauge("avgpipe_train_tokens_per_second", "Token throughput of the last round.", lbl...)
	t.lossGauge = reg.Gauge("avgpipe_train_loss", "Mean training loss of the last round.", lbl...)
	t.roundGauge = reg.Gauge("avgpipe_train_round", "Completed training rounds.", lbl...)
	base := cfg.Task.NewModel(cfg.Seed)
	t.pipelines = make([]*Pipeline, cfg.Pipelines)
	t.gens = make([]data.Generator, cfg.Pipelines)
	t.opts = make([]optim.Optimizer, cfg.Pipelines)
	for p := 0; p < cfg.Pipelines; p++ {
		if !t.local(p) {
			continue // a peer process owns this replica
		}
		m := cfg.Task.NewModel(cfg.Seed) // same seed: identical start
		pl, err := NewPipelineWith(m, PipelineConfig{
			Stages: cfg.StageCount, Plan: cfg.Plan, Advance: cfg.Advance,
			Partition: cfg.Partition, Trace: cfg.Trace, Obs: cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		pl.SetFaults(t.faults, p)
		pl.SetWatchdog(cfg.Watchdog)
		t.pipelines[p] = pl
		t.gens[p] = cfg.Task.NewGen(cfg.Seed + 100 + int64(p))
		t.opts[p] = newOptimizer(cfg.Task)
	}
	t.avg = NewAveragerObs(cfg.Pipelines, base.Params(), cfg.Obs)
	if cfg.Alpha > 0 {
		t.avg.Alpha = cfg.Alpha
	}
	t.avg.SetFaults(t.faults)
	if cfg.Dist != nil {
		t.avg.AttachMesh(cfg.Dist.Mesh)
	}
	if cfg.Compress != netx.CodecNone {
		if d := cfg.Dist; d != nil && !d.Mesh.SupportsCodec(cfg.Compress) {
			return nil, fmt.Errorf("core: a mesh peer does not support update codec %v", cfg.Compress)
		}
		if err := t.avg.SetCompression(cfg.Compress, cfg.TopK); err != nil {
			return nil, err
		}
	}
	if cfg.RoundDeadline > 0 {
		t.avg.SetRoundDeadline(cfg.RoundDeadline)
	}
	t.evalModel = base
	t.evalGen = cfg.Task.NewGen(cfg.Seed + 999)
	return t, nil
}

// local reports whether pipeline p runs in this process (always true
// outside dist mode).
func (t *Trainer) local(p int) bool {
	return t.cfg.Dist == nil || t.cfg.Dist.ReplicaID == p
}

func newOptimizer(task *workload.Task) optim.Optimizer {
	if task.UseSGD {
		return optim.NewSGD(task.LR)
	}
	return optim.NewAdam(task.LR)
}

// Step runs one training round: every pipeline processes one batch (M
// micro-batches through K stages), applies its local optimizer update,
// and performs the elastic-averaging exchange. It returns the mean
// training loss across live pipelines. It panics if the round fails
// (only possible with a watchdog armed or a cancelled context);
// StepContext is the error-returning variant.
func (t *Trainer) Step() float64 {
	loss, err := t.StepContext(context.Background())
	if err != nil {
		panic(fmt.Sprintf("core: Step: %v", err))
	}
	return loss
}

// StepContext runs one training round under supervision: the round
// fails — with a *StallError per wedged pipeline — when a watchdog
// window elapses with no op retired, and aborts cleanly when ctx is
// cancelled. Scripted faults fire here: a replica whose crash round has
// arrived detaches from the averaging set (its rounds renormalize over
// the survivors), and a replica whose rejoin round has arrived restarts
// from the reference model with fresh optimizer state.
func (t *Trainer) StepContext(ctx context.Context) (float64, error) {
	if t.cfg.Dist != nil {
		return t.stepDist(ctx)
	}
	n := t.cfg.Pipelines
	round := t.round
	for p := 0; p < n; p++ {
		t.scriptFaults(p)
	}
	losses := make([]float64, n)
	errs := make([]error, n)
	live := 0
	var samples, tokens int64
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		batch := t.gens[p].NextBatch(t.cfg.Task.BatchSize)
		if t.detached[p] {
			// The batch is drawn and discarded so every generator's state
			// stays a pure function of the round counter — which is what
			// lets checkpoint restore fast-forward the streams.
			continue
		}
		live++
		samples += int64(batch.Size)
		tokens += int64(len(batch.Targets))
		wg.Add(1)
		go func(p int, batch *data.Batch) {
			defer wg.Done()
			losses[p], errs[p] = t.localStep(ctx, p, batch)
		}(p, batch)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	if !t.cfg.AsyncDilute {
		// Synchronous elastic round: dilute against the reference that
		// already includes this round's updates, so the pull is pure
		// variance reduction rather than a drag on the common trajectory.
		// The barrier is DrainContext, not WaitRound: without a deadline
		// it returns past a dropped update, where WaitRound would block.
		if err := t.avg.DrainContext(ctx); err != nil {
			return 0, err
		}
		for p := 0; p < n; p++ {
			if t.detached[p] {
				continue
			}
			t.avg.Dilute(p, t.pipelines[p].Params())
		}
	}
	t.round++
	var total float64
	for _, l := range losses {
		total += l
	}
	var loss float64
	if live > 0 {
		loss = total / float64(live)
	}

	return loss, t.finishStep(start, StepRecord{
		Round: round, Loss: loss, Samples: int(samples), Tokens: int(tokens),
		Live: live, Losses: losses, ReplicaID: -1,
	})
}

// finishStep is the epilogue every round ends in, in-process or dist:
// it times the round, updates the trainer's throughput and loss
// metrics, and logs the StepRecord. The caller fills the fields that
// differ by mode (Live, Losses, Replica, ReplicaID); everything derived
// from the clock or the averager is decided here.
func (t *Trainer) finishStep(start time.Time, rec StepRecord) error {
	dur := time.Since(start).Seconds()
	t.stepSec.Observe(dur)
	t.samplesTotal.Add(float64(rec.Samples))
	t.tokensTotal.Add(float64(rec.Tokens))
	rec.StepSeconds = dur
	if dur > 0 {
		rec.SamplesPerS, rec.TokensPerS = float64(rec.Samples)/dur, float64(rec.Tokens)/dur
	}
	t.samplesPerSec.Set(rec.SamplesPerS)
	t.tokensPerSec.Set(rec.TokensPerS)
	t.lossGauge.Set(rec.Loss)
	t.roundGauge.Set(float64(t.round))
	rec.OpenRounds = t.avg.PendingRounds()
	if err := t.stepLog.Log(rec); err != nil {
		return fmt.Errorf("core: step log: %w", err)
	}
	return nil
}

// stepDist runs one training round of a multi-process job: the local
// replica processes its batch, applies its local optimizer update,
// submits the delta (which fans out to every peer's reference copy),
// waits for the round to close on the local reference copy — the
// distributed barrier that replaces DrainContext, whose watermarks only
// see local submits — and dilutes. Because every process applies the same
// deterministic reduction, the local loss sequence is bit-identical to
// the same replica's losses in a single-process run of the same job.
func (t *Trainer) stepDist(ctx context.Context) (float64, error) {
	p := t.cfg.Dist.ReplicaID
	round := t.round
	t.scriptFaults(p)
	start := time.Now()
	batch := t.gens[p].NextBatch(t.cfg.Task.BatchSize)
	var loss float64
	var samples, tokens int64
	if !t.detached[p] {
		samples, tokens = int64(batch.Size), int64(len(batch.Targets))
		l, err := t.localStep(ctx, p, batch)
		if err != nil {
			return 0, err
		}
		loss = l
	}
	if !t.cfg.AsyncDilute {
		// Synchronous elastic round across processes: wait until this
		// round has been applied to the local reference copy (all live
		// replicas' updates arrived, or the round deadline expired it).
		if err := t.avg.WaitRound(ctx, round); err != nil {
			return 0, err
		}
		if !t.detached[p] {
			t.avg.Dilute(p, t.pipelines[p].Params())
		}
	}
	t.round++

	return loss, t.finishStep(start, StepRecord{
		Round: round, Loss: loss, Samples: int(samples), Tokens: int(tokens),
		Live: t.avg.LiveReplicas(), Replica: p, ReplicaID: p,
	})
}

// scriptFaults fires replica p's scripted crash or rejoin at the start of
// the round: a crash detaches it from the averaging set (its rounds
// renormalize over the survivors); a rejoin restarts it as a rebooted
// process, not a resumed one — weights reseed from the reference (the
// elastic pull) and optimizer state starts over.
func (t *Trainer) scriptFaults(p int) {
	if !t.detached[p] && t.faults.CrashAt(p, t.round) {
		t.avg.Detach(p)
		t.detached[p] = true
	}
	if t.detached[p] && t.faults.RejoinAt(p, t.round) {
		t.avg.Rejoin(p, t.pipelines[p].Params())
		t.opts[p] = newOptimizer(t.cfg.Task)
		t.detached[p] = false
	}
}

// localStep is replica p's share of a round in either mode: the batch
// runs through its pipeline, the gradients are clipped and stepped, and
// the update is submitted (§3.2 step ❸) — then, in the asynchronous
// mode, the replica dilutes against whatever reference is current.
func (t *Trainer) localStep(ctx context.Context, p int, batch *data.Batch) (float64, error) {
	pl := t.pipelines[p]
	loss, err := pl.RunBatchContext(ctx, batch, t.cfg.Micro)
	if err != nil {
		nn.ZeroGrads(pl.Params()) // partial gradients are meaningless
		return 0, fmt.Errorf("pipeline %d: %w", p, err)
	}
	if t.cfg.ClipNorm > 0 {
		optim.ClipGradNorm(pl.Params(), t.cfg.ClipNorm)
	}
	t.opts[p].Step(pl.Params())
	nn.ZeroGrads(pl.Params())
	if err := t.avg.SubmitContext(ctx, p, t.round, pl.Params()); err != nil {
		return 0, fmt.Errorf("pipeline %d: %w", p, err)
	}
	if t.cfg.AsyncDilute {
		t.avg.Dilute(p, pl.Params())
	}
	return loss, nil
}

// RejoinMesh re-enters a restarted dist-mode process into a running
// job without operator input: the averager pulls the current reference
// state from a peer, the local pipeline reseeds from it with fresh
// optimizer state (a rebooted replica, not a resumed one), the data
// stream fast-forwards to the join round, and the rejoin is announced
// so peers re-admit this replica. It returns the round training should
// resume at. Call after NewTrainer and before the first StepContext.
func (t *Trainer) RejoinMesh(ctx context.Context) (int, error) {
	if t.cfg.Dist == nil {
		return 0, errors.New("core: RejoinMesh requires dist mode")
	}
	join, err := t.avg.ResumeReplica(ctx)
	if err != nil {
		return 0, err
	}
	p := t.cfg.Dist.ReplicaID
	pl := t.pipelines[p]
	t.avg.WriteReference(pl.Params())
	t.avg.SeedReplica(p, pl.Params())
	t.opts[p] = newOptimizer(t.cfg.Task)
	t.gens[p] = t.cfg.Task.NewGen(t.cfg.Seed + 100 + int64(p))
	for r := 0; r < join; r++ {
		t.gens[p].NextBatch(t.cfg.Task.BatchSize)
	}
	t.round = join
	// Re-measure peer clock offsets now that our inbound loops answer
	// pings: a rejoiner skips the quiescent formation-time sync (its
	// peers are mid-training). Best effort — offsets only align traces.
	if m := t.cfg.Dist.Mesh; m != nil {
		for _, id := range m.Peers() {
			_, _ = m.ResyncClock(ctx, id)
		}
	}
	return join, nil
}

// SetStepLog streams one StepRecord JSON line per Step to w (nil stops
// logging). Call before training, not concurrently with Step.
func (t *Trainer) SetStepLog(w io.Writer) {
	if w == nil {
		t.stepLog = nil
		return
	}
	t.stepLog = obs.NewJSONL(w)
}

// Round returns the number of completed rounds.
func (t *Trainer) Round() int { return t.round }

// Eval evaluates the reference model on the held-out batch and returns
// loss and accuracy.
func (t *Trainer) Eval() (loss, acc float64) {
	_ = t.avg.DrainContext(context.Background())
	t.avg.WriteReference(t.evalModel.Params())
	return workload.Evaluate(t.evalModel, t.evalGen.EvalBatch(), t.cfg.Task.PerPosition)
}

// ReferenceSnapshot drains the averager and returns the up-to-date
// reference parameters — the averaged model a serving tier publishes.
// The returned slice aliases the trainer's eval model; callers that
// ship it elsewhere (e.g. a snapshot frame) should copy the data before
// the next round mutates it.
func (t *Trainer) ReferenceSnapshot() []*nn.Param {
	_ = t.avg.DrainContext(context.Background())
	t.avg.WriteReference(t.evalModel.Params())
	return t.evalModel.Params()
}

// Close releases the reference-model goroutine.
func (t *Trainer) Close() { t.avg.Close() }

// Averager exposes the underlying elastic averager (for tests and
// ablations).
func (t *Trainer) Averager() *Averager { return t.avg }

// Pipelines exposes the replica pipelines.
func (t *Trainer) Pipelines() []*Pipeline { return t.pipelines }
