package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avgpipe/internal/compiled"
	"avgpipe/internal/data"
	"avgpipe/internal/fault"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/optim"
	"avgpipe/internal/sched"
	"avgpipe/internal/tensor"
)

// Pipeline executes one model partitioned into stages, with a goroutine
// per stage connected by buffered channels — the process-per-GPU runtime
// of §6 mapped onto goroutines. It is a schedule interpreter: each stage
// worker walks its ordered sched.Op list, receiving, computing, and
// sending exactly as the op sequence dictates, so a sched.Schedule is
// the single source of truth for what every stage does. AFAB/GPipe,
// 1F1B/Dapple, AFP, and any future schedule run on real tensors with
// zero runtime changes, and the runtime's measured occupancy equals the
// schedule's analytic occupancy (sched.Analyze) exactly. The compute
// inside each op is a replay of the stage's compiled program (lowered
// once, when the pipeline is built).
type Pipeline struct {
	Stages []*nn.Sequential
	// Advance is the per-stage AFP run-ahead the pipeline was built with
	// (nil when it was built from an explicit schedule).
	Advance []int
	// Trace records per-op timestamps into StageMetrics.Ops during
	// RunBatchContext; see WriteTrace.
	Trace bool

	plan  sched.Plan
	fixed *sched.Schedule // non-nil when built from one explicit schedule
	cur   *sched.Schedule // schedule in effect for curM micro-batches
	curAn *sched.Analysis
	curM  int

	// progs[s] is stage s lowered at build time into a static op graph
	// that the stage worker replays per micro-batch, with the backward
	// pass split 2BP-style into grad-input and grad-weight ops. envFree[s]
	// recycles per-micro execution environments across batches; a stage
	// sees one or two input shapes, so the free list is scanned by shape.
	// Each list is touched only by stage s's worker goroutine.
	progs   []*compiled.Program
	envFree [][]*compiled.Env

	params  []*nn.Param
	metrics []StageMetrics

	obs        *obs.Registry
	stageInstr []stageInstr
	batchSec   *obs.Histogram
	batches    *obs.Counter
	stalls     *obs.Counter

	// faults injects straggler delays into stage compute (nil = none);
	// pipeID identifies this pipeline in the injector's coordinates.
	faults *fault.Injector
	pipeID int
	// watchdog is the liveness window: a batch with no op retired for
	// this long is aborted with a *StallError (0 = no watchdog).
	watchdog time.Duration
}

// stageInstr caches one stage's obs metric handles so the stage worker's
// hot path is pure atomic updates — no registry lookups per op.
type stageInstr struct {
	fwdSec, bwdSec *obs.Histogram
	waitSec        *obs.Counter
	fwdOps, bwdOps *obs.Counter
	bubbleFrac     *obs.Gauge
	peakInFlight   *obs.Gauge
}

// StageMetrics instruments one stage worker's most recent batch: wall
// time spent computing vs waiting on channels, the peak number of live
// activation contexts, op counts, and (with Pipeline.Trace) the per-op
// timeline — the runtime counterpart of the simulator's busy/idle/stash
// accounting, cross-validated against sched.Analyze.
type StageMetrics struct {
	// Busy is time inside Forward/Backward; Wait is time blocked on
	// channel receives.
	Busy, Wait time.Duration
	// FwdTime and BwdTime split Busy by pass direction — the per-stage
	// compute costs the paper's tuner profiles (§5).
	FwdTime, BwdTime time.Duration
	// PeakInFlight is the stash high-water mark (live contexts).
	PeakInFlight int
	// Fwd and Bwd count micro-batch passes executed. Under a split
	// schedule Bwd counts grad-input passes (BwdIn) and BwdW counts
	// grad-weight passes; combined backwards leave BwdW at zero.
	Fwd, Bwd, BwdW int
	// Ops is the per-op trace (only recorded when Pipeline.Trace is
	// set), mirroring the simulator's timeline events so real and
	// simulated traces are diff-able.
	Ops []OpEvent
}

// BubbleFraction is the share of the stage's wall clock spent waiting on
// channel receives rather than computing — the runtime analogue of the
// simulator's (bubble + comm-blocked) / makespan.
func (m StageMetrics) BubbleFraction() float64 {
	wall := m.Busy + m.Wait
	if wall <= 0 {
		return 0
	}
	return float64(m.Wait) / float64(wall)
}

// OpEvent records one executed op for tracing: its position in the
// stage's schedule, what it was, and when its compute ran relative to
// the start of RunBatchContext. WriteTrace renders these in the same
// Chrome-trace shape as pipesim.Result.WriteTrace.
type OpEvent struct {
	Index int
	Kind  sched.Kind
	Micro int
	Start time.Duration
	Dur   time.Duration
}

// PartitionMode selects how model layers are assigned to stages.
type PartitionMode int

const (
	// PartitionEqualLayers splits the model into stages of near-equal
	// layer count (PartitionModelLayers).
	PartitionEqualLayers PartitionMode = iota
	// PartitionCostAware runs the PipeDream-style DP (Partition) over
	// per-layer costs estimated from parameter counts, balancing stage
	// compute rather than stage depth.
	PartitionCostAware
)

// PipelineConfig configures NewPipelineWith.
type PipelineConfig struct {
	// Stages is the pipeline depth K.
	Stages int
	// Plan generates the per-stage op order; the zero value means AFP
	// with Advance (which is pure 1F1B when Advance is nil).
	Plan sched.Plan
	// Advance is the per-stage run-ahead consumed by the default AFP
	// plan; ignored when Plan is set.
	Advance []int
	// Partition picks the layer→stage assignment policy.
	Partition PartitionMode
	// Trace records per-op timestamps (StageMetrics.Ops).
	Trace bool
	// Obs selects the metrics registry the pipeline records per-stage
	// compute, wait, and occupancy metrics into (nil = obs.Default()).
	Obs *obs.Registry
}

// NewPipelineWith builds a schedule-interpreting pipeline with explicit
// partitioning and schedule choices. A malformed config (non-positive
// stage count, advance vector of the wrong length) is an error, not a
// panic, so callers can degrade gracefully.
func NewPipelineWith(model *nn.Sequential, cfg PipelineConfig) (*Pipeline, error) {
	k := cfg.Stages
	if k <= 0 {
		return nil, fmt.Errorf("core: need at least one stage, got %d", k)
	}
	advance := cfg.Advance
	if advance == nil {
		advance = make([]int, k)
	}
	if len(advance) != k {
		return nil, fmt.Errorf("core: advance length %d for %d stages", len(advance), k)
	}
	plan := cfg.Plan
	if plan.Make == nil {
		plan = sched.AFPPlan(advance)
	}
	var bounds [][2]int
	switch cfg.Partition {
	case PartitionCostAware:
		bounds = PartitionModelCost(model, k)
	default:
		bounds = PartitionModelLayers(len(model.Layers), k)
	}
	p, err := buildPipeline(model, bounds)
	if err != nil {
		return nil, err
	}
	p.Advance, p.Trace, p.plan = advance, cfg.Trace, plan
	p.SetObs(cfg.Obs)
	return p, nil
}

// buildPipeline slices the model at bounds and lowers every stage into
// its compiled program — the one way a Pipeline comes to execute a
// stage, shared by both constructors.
func buildPipeline(model *nn.Sequential, bounds [][2]int) (*Pipeline, error) {
	k := len(bounds)
	p := &Pipeline{Stages: make([]*nn.Sequential, k),
		progs: make([]*compiled.Program, k), envFree: make([][]*compiled.Env, k),
		params: model.Params(), metrics: make([]StageMetrics, k)}
	for s, b := range bounds {
		p.Stages[s] = model.Slice(b[0], b[1])
		prog, err := nn.CompileStage(p.Stages[s], compiled.Options{EmitOut: s < k-1, EmitDX: s > 0})
		if err != nil {
			return nil, fmt.Errorf("core: compile stage %d: %w", s, err)
		}
		p.progs[s] = prog
	}
	return p, nil
}

// StagePrograms returns the per-stage compiled programs; tests use them
// to validate plans directly.
func (p *Pipeline) StagePrograms() []*compiled.Program { return p.progs }

// SetObs rebinds the pipeline's metrics to reg (nil = obs.Default()) and
// caches per-stage metric handles so RunBatchContext's hot path never
// touches the registry. Call before RunBatchContext, not concurrently
// with it.
func (p *Pipeline) SetObs(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	p.obs = reg
	// The kernel layer's arena and worker-pool gauges land in the same
	// registry, so /metrics shows whether buffer reuse is happening.
	tensor.BindObs(reg)
	p.batchSec = reg.Histogram("avgpipe_batch_seconds",
		"Wall time of one pipelined batch (RunBatch).", nil)
	p.batches = reg.Counter("avgpipe_batches_total", "Pipelined batches executed.")
	p.stalls = reg.Counter("avgpipe_watchdog_stalls_total",
		"Batches aborted by the runtime watchdog after a live-locked schedule.")
	p.stageInstr = make([]stageInstr, len(p.Stages))
	for s := range p.Stages {
		st := strconv.Itoa(s)
		p.stageInstr[s] = stageInstr{
			fwdSec: reg.Histogram("avgpipe_stage_fwd_seconds",
				"Per-micro-batch forward compute time by stage.", nil, "stage", st),
			bwdSec: reg.Histogram("avgpipe_stage_bwd_seconds",
				"Per-micro-batch backward compute time by stage.", nil, "stage", st),
			waitSec: reg.Counter("avgpipe_stage_wait_seconds_total",
				"Cumulative time a stage worker blocked on channel receives.", "stage", st),
			fwdOps: reg.Counter("avgpipe_stage_fwd_ops_total",
				"Forward micro-batch passes executed by stage.", "stage", st),
			bwdOps: reg.Counter("avgpipe_stage_bwd_ops_total",
				"Backward micro-batch passes executed by stage.", "stage", st),
			bubbleFrac: reg.Gauge("avgpipe_stage_bubble_fraction",
				"Wait share of the stage's wall clock in the last batch.", "stage", st),
			peakInFlight: reg.Gauge("avgpipe_stage_peak_inflight",
				"High-water mark of live activation stashes by stage.", "stage", st),
		}
	}
}

// NewPipelineFromSchedule builds a schedule interpreter over an explicit
// execution plan: stage s runs schedule.PerGPU[s] verbatim — a combined
// Bwd op stays combined (both backward halves run inline), so the
// measured occupancy equals the analysis of the schedule as given. The
// schedule must pass sched.Analyze (per-GPU structure plus cross-stage
// dependency legality) and cover exactly one flush whose micro set is
// 0..m−1; RunBatchContext then accepts only that m.
func NewPipelineFromSchedule(model *nn.Sequential, schedule *sched.Schedule) (*Pipeline, error) {
	an, err := sched.Analyze(schedule)
	if err != nil {
		return nil, err
	}
	if an.MaxMicro != an.Micros-1 {
		return nil, fmt.Errorf("core: schedule %s micro indices not contiguous from 0 (max %d over %d micros)",
			schedule.Name, an.MaxMicro, an.Micros)
	}
	p, err := buildPipeline(model, PartitionModelLayers(len(model.Layers), an.Stages))
	if err != nil {
		return nil, err
	}
	p.plan = sched.Plan{Name: schedule.Name}
	p.fixed, p.cur, p.curAn, p.curM = schedule, schedule, an, an.Micros
	p.SetObs(nil)
	return p, nil
}

// Params returns all parameters across stages in layer order.
func (p *Pipeline) Params() []*nn.Param { return p.params }

// Metrics returns each stage's instrumentation from the most recent
// RunBatchContext call.
func (p *Pipeline) Metrics() []StageMetrics {
	return append([]StageMetrics(nil), p.metrics...)
}

// ScheduleFor returns the concrete schedule the pipeline executes for a
// batch of m micro-batches, together with its analysis — what tests and
// callers compare measured StageMetrics against. It panics when m is
// not the micro count of a pipeline built from an explicit schedule.
func (p *Pipeline) ScheduleFor(m int) (*sched.Schedule, *sched.Analysis) {
	s, an, err := p.scheduleFor(m)
	if err != nil {
		panic(err.Error())
	}
	return s, an
}

// scheduleFor is ScheduleFor reporting a micro count an explicit
// schedule does not cover as an error; a plan that generates an illegal
// schedule is a bug and panics.
func (p *Pipeline) scheduleFor(m int) (*sched.Schedule, *sched.Analysis, error) {
	if p.cur != nil && p.curM == m {
		return p.cur, p.curAn, nil
	}
	if p.fixed != nil {
		return nil, nil, fmt.Errorf("core: pipeline built from schedule %q covering %d micro-batches, RunBatch got %d",
			p.fixed.Name, p.curAn.Micros, m)
	}
	// The runtime executes the finer-grained 2BP split: each combined
	// backward becomes an adjacent BwdIn/BwdW pair, so the analysis (and
	// the simulator) see the same op stream the stage workers retire.
	s := sched.SplitBackward(p.plan.Make(len(p.Stages), m))
	an, err := sched.Analyze(s)
	if err != nil {
		panic(fmt.Sprintf("core: plan %s produced an illegal schedule: %v", p.plan.Name, err))
	}
	if an.Micros != m || an.MaxMicro != m-1 {
		panic(fmt.Sprintf("core: plan %s covers %d micros, want %d", p.plan.Name, an.Micros, m))
	}
	p.cur, p.curAn, p.curM = s, an, m
	return s, an, nil
}

// microMsg carries one micro-batch's activations (forward) or gradient
// (backward) between stage workers.
type microMsg struct {
	micro int
	t     *tensor.Tensor
}

// batchRun is the shared state of one RunBatchContext execution: the channels
// wiring the stage workers, the abort machinery the watchdog uses to
// unwind a live-locked batch, and the liveness clock it reads.
type batchRun struct {
	micros       []*data.Batch
	fwdCh, bwdCh []chan microMsg
	losses       []float64
	epoch        time.Time

	// abort, once closed, unwinds every stage worker at its next receive
	// or op boundary. kill records the first failure and closes it.
	abort    chan struct{}
	killOnce sync.Once
	errMu    sync.Mutex
	err      error

	// last is the unix-nano timestamp of the most recent retired op —
	// the liveness signal the watchdog monitors. pos[s] is the index of
	// the op stage s is currently executing (len(ops) once done), read
	// by the watchdog to dump in-flight state.
	last atomic.Int64
	pos  []atomic.Int32
}

// kill records the first failure and aborts the run; later calls lose.
func (r *batchRun) kill(err error) {
	r.killOnce.Do(func() {
		r.errMu.Lock()
		r.err = err
		r.errMu.Unlock()
		close(r.abort)
	})
}

// failure returns the recorded abort cause, nil if the run completed.
func (r *batchRun) failure() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// RunBatchContext pipelines the batch through the stages as M
// micro-batches, each stage executing its schedule's op order, and
// returns the mean training loss across micro-batches. Parameter
// gradients are accumulated (summed over micro-batches) and then scaled
// to a batch mean; the caller owns the optimizer step.
//
// The batch runs under supervision: it is aborted — every stage worker
// unwound, per-stage metrics still recorded, no goroutine leaked — when
// ctx is cancelled, or when the watchdog window (SetWatchdog) elapses
// with no op retired. A watchdog kill returns a *StallError dumping each
// stage's in-flight schedule position. On error the partially
// accumulated gradients are meaningless; discard them before the next
// step. A micro count an explicit schedule does not cover is an error
// before any stage runs.
func (p *Pipeline) RunBatchContext(ctx context.Context, batch *data.Batch, micro int) (float64, error) {
	k := len(p.Stages)
	micros := batch.Slice(micro)
	m := len(micros)
	schedule, _, err := p.scheduleFor(m)
	if err != nil {
		return 0, err
	}

	run := &batchRun{
		micros: micros,
		fwdCh:  make([]chan microMsg, k),
		bwdCh:  make([]chan microMsg, k),
		losses: make([]float64, m),
		epoch:  time.Now(),
		abort:  make(chan struct{}),
		pos:    make([]atomic.Int32, k),
	}
	// fwdCh[s] feeds stage s its inputs (s ≥ 1; stage 0 reads the batch
	// slice directly); bwdCh[s] feeds stage s its output gradients.
	// Capacity m means senders never block — all sequencing comes from
	// the receivers following their op order, and an aborted receiver
	// can never strand a sender.
	for s := 0; s < k; s++ {
		run.fwdCh[s] = make(chan microMsg, m)
		run.bwdCh[s] = make(chan microMsg, m)
	}
	run.last.Store(run.epoch.UnixNano())

	stopMon := make(chan struct{})
	if p.watchdog > 0 || ctx.Done() != nil {
		go p.monitor(ctx, schedule, run, stopMon)
	}

	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			p.stageWorker(s, k, schedule.PerGPU[s], run)
		}(s)
	}
	wg.Wait()
	close(stopMon)
	p.batchSec.Observe(time.Since(run.epoch).Seconds())
	p.batches.Inc()
	if err := run.failure(); err != nil {
		return 0, err
	}

	optim.ScaleGrads(p.params, m)
	var total float64
	for _, l := range run.losses {
		total += l
	}
	return total / float64(m), nil
}

// monitor is the per-batch watchdog goroutine: it aborts the run when
// ctx fires or when no op has retired within the watchdog window.
func (p *Pipeline) monitor(ctx context.Context, schedule *sched.Schedule, run *batchRun, stop chan struct{}) {
	tick := p.watchdog / 4
	if tick <= 0 || tick > 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			run.kill(ctx.Err())
			return
		case <-time.After(tick):
			if p.watchdog <= 0 {
				continue
			}
			idle := time.Since(time.Unix(0, run.last.Load()))
			if idle >= p.watchdog {
				p.stalls.Inc()
				err := p.stallError(schedule, run, idle)
				p.obs.Events().Emit(obs.Event{Type: obs.EventWatchdogStall,
					Replica: p.pipeID, Round: -1, Value: idle.Seconds(),
					Detail: err.Error()})
				run.kill(err)
				return
			}
		}
	}
}

// stageWorker interprets stage s's op list by replaying the stage's
// compiled program: no kernel dispatch, no lifetime decisions, no arena
// traffic in steady state — those were all resolved when the pipeline
// was built. A Fwd op receives the micro-batch's activations from
// upstream, replays the forward ops, and ships the output downstream.
// Backward is split 2BP-style: BwdIn receives the output gradient from
// downstream (the last stage derives it locally from the loss), replays
// the grad-input ops and ships dx upstream immediately; BwdW replays the
// grad-weight ops afterwards, which is when the micro-batch's Env (its
// activation stash) retires. Combined Bwd ops (explicit unsplit
// schedules) run both halves inline. Because the worker follows the
// schedule verbatim, its measured PeakInFlight equals the schedule's
// analytic MaxInFlight exactly.
func (p *Pipeline) stageWorker(s, k int, ops []sched.Op, run *batchRun) {
	prog, free := p.progs[s], &p.envFree[s]
	envs := make([]*compiled.Env, len(run.micros)) // by micro; nil = not in flight
	pendF := make(map[int]*tensor.Tensor)
	pendB := make(map[int]*tensor.Tensor)
	inflight := 0
	met := StageMetrics{}
	instr := p.stageInstr[s]
	defer func() {
		// Recycle the Envs stranded by an abort: the ownership of their
		// in-flight tensors is indeterminate, so ResetMicro drops the
		// references without releasing.
		for _, env := range envs {
			if env != nil {
				env.ResetMicro()
				*free = append(*free, env)
			}
		}
		p.metrics[s] = met
		instr.waitSec.Add(met.Wait.Seconds())
		instr.bubbleFrac.Set(met.BubbleFraction())
		instr.peakInFlight.SetMax(float64(met.PeakInFlight))
	}()

	getEnv := func(shape []int) *compiled.Env {
		for i, env := range *free {
			if slices.Equal(env.InShape(), shape) {
				last := len(*free) - 1
				(*free)[i], (*free)[last] = (*free)[last], nil
				*free = (*free)[:last]
				return env
			}
		}
		return prog.NewEnv(shape)
	}
	// retire runs the grad-weight half and returns the micro's Env to
	// the free list; this is where the schedule's in-flight count drops.
	retire := func(micro int) {
		env := envs[micro]
		env.BackwardWeights()
		env.EndMicro()
		envs[micro] = nil
		*free = append(*free, env)
		inflight--
	}

	// recv returns the payload for the requested micro, stashing any
	// earlier arrivals the op order has not demanded yet (upstream may
	// produce in a different order than this stage consumes). ok is
	// false when the run was aborted while waiting.
	recv := func(ch chan microMsg, pending map[int]*tensor.Tensor, micro int) (*tensor.Tensor, bool) {
		if t, ok := pending[micro]; ok {
			delete(pending, micro)
			return t, true
		}
		start := time.Now()
		for {
			select {
			case msg := <-ch:
				if msg.micro == micro {
					met.Wait += time.Since(start)
					return msg.t, true
				}
				pending[msg.micro] = msg.t
			case <-run.abort:
				met.Wait += time.Since(start)
				return nil, false
			}
		}
	}

	for i, op := range ops {
		run.pos[s].Store(int32(i))
		select {
		case <-run.abort:
			return
		default:
		}
		var x *tensor.Tensor
		ok := true
		switch op.Kind {
		case sched.Fwd:
			if s == 0 {
				x = run.micros[op.Micro].X
			} else {
				x, ok = recv(run.fwdCh[s], pendF, op.Micro)
			}
		case sched.Bwd, sched.BwdIn:
			if s < k-1 {
				x, ok = recv(run.bwdCh[s], pendB, op.Micro)
			}
		}
		if !ok {
			return
		}
		busyStart := time.Now()
		if d := p.faults.StageDelay(p.pipeID, s, i); d > 0 {
			// Injected straggler: the op still computes, just slowly, so
			// the slowdown shows up in Busy and the per-op trace.
			time.Sleep(d)
		}
		switch op.Kind {
		case sched.Fwd:
			env := getEnv(x.Shape())
			env.BindInput(x)
			env.Forward()
			envs[op.Micro] = env
			inflight++
			met.Fwd++
			if inflight > met.PeakInFlight {
				met.PeakInFlight = inflight
			}
			if s < k-1 {
				run.fwdCh[s+1] <- microMsg{micro: op.Micro, t: env.Output()}
			}
		case sched.Bwd, sched.BwdIn:
			env := envs[op.Micro]
			if s == k-1 {
				// The loss gradient is local. The logits live in the Env
				// (slot storage, or a dynamic tensor ReleaseOutput frees).
				loss, dlogits := nn.CrossEntropy(env.Output(), run.micros[op.Micro].Targets)
				env.ReleaseOutput()
				run.losses[op.Micro] = loss
				x = dlogits
			}
			env.BindGradIn(x)
			env.BackwardInput()
			// Ship dx the moment the grad-input half finishes — the 2BP
			// payoff: upstream unblocks before our grad-weight work runs.
			if s > 0 {
				run.bwdCh[s-1] <- microMsg{micro: op.Micro, t: env.GradOut()}
			}
			met.Bwd++
			if op.Kind == sched.Bwd {
				retire(op.Micro)
			}
		case sched.BwdW:
			retire(op.Micro)
			met.BwdW++
		}
		dur := time.Since(busyStart)
		met.Busy += dur
		run.last.Store(time.Now().UnixNano())
		if op.Kind == sched.Fwd {
			met.FwdTime += dur
			instr.fwdSec.Observe(dur.Seconds())
			instr.fwdOps.Inc()
		} else {
			met.BwdTime += dur
			instr.bwdSec.Observe(dur.Seconds())
			instr.bwdOps.Inc()
		}
		if p.Trace {
			met.Ops = append(met.Ops, OpEvent{Index: i, Kind: op.Kind, Micro: op.Micro,
				Start: busyStart.Sub(run.epoch), Dur: dur})
		}
	}
	run.pos[s].Store(int32(len(ops)))
}

// ErrNoTrace reports a WriteTrace call with nothing to write: Trace was
// never enabled (or RunBatchContext never ran), so emitting a silently empty
// trace file would mislead whoever opens it in Perfetto.
var ErrNoTrace = errors.New("core: no per-op trace recorded; set Pipeline.Trace before RunBatch")

// Tracer renders the most recent traced RunBatchContext into the shared
// obs.Tracer: one track per stage, one complete event per op named like
// "F3"/"B3" (matching pipesim.Result.Tracer so a real run and its
// simulation diff directly), plus one flow-arrow chain per micro-batch
// linking its journey forward down the stages and backward up again.
func (p *Pipeline) Tracer() (*obs.Tracer, error) {
	traced := false
	for _, met := range p.metrics {
		if len(met.Ops) > 0 {
			traced = true
			break
		}
	}
	if !traced {
		return nil, ErrNoTrace
	}
	t := obs.NewTracer("core.Pipeline")
	t.Process(1, "pipeline runtime")
	k := len(p.metrics)
	for s, met := range p.metrics {
		t.Thread(1, s+1, fmt.Sprintf("GPU %d", s+1))
		for _, op := range met.Ops {
			name := sched.Op{Kind: op.Kind, Micro: op.Micro}.String()
			start := op.Start.Seconds() * 1e6
			dur := op.Dur.Seconds() * 1e6
			t.Span(1, s+1, name, "compute", start, dur,
				map[string]any{"op": op.Index, "micro": op.Micro})
			// Flow arrows: micro m starts its chain at stage 0's forward,
			// steps through every intermediate op, and ends where its
			// gradient returns to stage 0. Mid-span timestamps keep each
			// flow point inside its slice, as chrome://tracing requires.
			id := fmt.Sprintf("micro-%d", op.Micro)
			mid := start + dur/2
			switch {
			case op.Kind == sched.Fwd && s == 0:
				t.Flow(1, s+1, id, id, mid, obs.FlowStart)
			case (op.Kind == sched.Bwd || op.Kind == sched.BwdW) && (s == 0 || k == 1):
				// Under a split schedule the micro's chain ends at its
				// grad-weight op on stage 0; its BwdIn there is a step.
				t.Flow(1, s+1, id, id, mid, obs.FlowEnd)
			default:
				t.Flow(1, s+1, id, id, mid, obs.FlowStep)
			}
		}
	}
	return t, nil
}

// WriteTrace writes the most recent traced RunBatchContext as a Chrome trace.
// It returns ErrNoTrace instead of silently writing an empty trace when
// Trace was never enabled.
func (p *Pipeline) WriteTrace(w io.Writer) error {
	t, err := p.Tracer()
	if err != nil {
		return err
	}
	if err := t.Write(w); err != nil {
		return fmt.Errorf("core: write pipeline trace: %w", err)
	}
	return nil
}
