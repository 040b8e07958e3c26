package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
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

// Pipeline executes one model partitioned into stages — the
// process-per-GPU runtime of §6 — as a schedule executor: each stage
// runs its ordered sched.Op list verbatim, and an op is dispatched when
// the dependency rule shared with sched.Analyze and the simulator
// (sched.Op.Deps) says its input has been produced, so a sched.Schedule
// is the single source of truth for what every stage does and when it
// may do it. AFAB/GPipe, 1F1B/Dapple, AFP, and any future schedule run
// on real tensors with zero runtime changes, and the runtime's measured
// occupancy equals the schedule's analytic occupancy (sched.Analyze)
// exactly. The compute inside each op is a replay of the stage's
// compiled program (lowered once, when the pipeline is built).
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
	curEx *executor // runs cur; rebuilt when cur changes
	curM  int

	// progs[s] is stage s lowered at build time into a static op graph
	// that the executor replays per micro-batch, with the backward pass
	// split 2BP-style into grad-input and grad-weight ops. envFree[s]
	// recycles per-micro execution environments across batches; a stage
	// sees one or two input shapes, so the free list is scanned by shape.
	// Each list is touched only by the goroutine running stage s's op.
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

// stageInstr caches one stage's obs metric handles so the executor's
// hot path is pure atomic updates — no registry lookups per op.
type stageInstr struct {
	fwdSec, bwdSec *obs.Histogram
	waitSec        *obs.Counter
	fwdOps, bwdOps *obs.Counter
	bubbleFrac     *obs.Gauge
	peakInFlight   *obs.Gauge
}

// StageMetrics instruments one stage's most recent batch: wall time
// spent computing vs sitting idle waiting for input, the peak number of
// live activation contexts, op counts, and (with Pipeline.Trace) the
// per-op timeline — the runtime counterpart of the simulator's
// busy/idle/stash accounting, cross-validated against sched.Analyze.
type StageMetrics struct {
	// Busy is time inside Forward/Backward; Wait is the time the stage
	// sat idle before an op, waiting for its input (from when it ran
	// out of ready ops to when its next op started).
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

// BubbleFraction is Wait / (Busy + Wait): the share of the stage's wall
// clock spent idle waiting for input rather than computing — the
// runtime analogue of the simulator's (bubble + comm-blocked) /
// makespan.
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

// NewPipelineWith builds a schedule-executing pipeline with explicit
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
				"Cumulative time a stage sat idle waiting for its input.", "stage", st),
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

// NewPipelineFromSchedule builds a schedule executor over an explicit
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
	// the simulator) see the same op stream the executor retires.
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

// RunBatchContext pipelines the batch through the stages as M
// micro-batches, each stage executing its schedule's op order, and
// returns the mean training loss across micro-batches. Parameter
// gradients are accumulated (summed over micro-batches) and then scaled
// to a batch mean; the caller owns the optimizer step.
//
// The batch runs under supervision: it is aborted — no further op
// dispatched, the ops in flight finished, per-stage metrics still
// recorded, no goroutine leaked — when ctx is cancelled, or when the
// watchdog window (SetWatchdog) elapses with no op retired. A watchdog
// kill returns a *StallError dumping each stage's in-flight schedule
// position. On error the partially accumulated gradients are
// meaningless; discard them before the next step. A micro count an
// explicit schedule does not cover is an error before any stage runs.
func (p *Pipeline) RunBatchContext(ctx context.Context, batch *data.Batch, micro int) (float64, error) {
	micros := batch.Slice(micro)
	m := len(micros)
	schedule, _, err := p.scheduleFor(m)
	if err != nil {
		return 0, err
	}
	if p.curEx == nil || p.curEx.schedule != schedule {
		p.curEx = newExecutor(p, schedule, m)
	}
	e := p.curEx
	err = e.run(ctx, micros)
	p.batchSec.Observe(time.Since(e.epoch).Seconds())
	p.batches.Inc()
	if err != nil {
		return 0, err
	}
	optim.ScaleGrads(p.params, m)
	var total float64
	for _, l := range e.losses {
		total += l
	}
	return total / float64(m), nil
}

// executor runs one schedule on the pipeline's stages by the dependency
// rule: a stage's next op is dispatched once sched.Walker says its input
// has been produced. At most one op per stage is in flight, so program
// order and the stash bound hold by construction while stages overlap.
// There are no stage goroutines: the goroutine that retires an op goes
// on with the next ready op — its own stage's first — and starts a
// goroutine for each other stage that was idle and is now ready. The
// caller drives from stage 0, so with one stage every op runs on the
// caller's goroutine. It is built once per schedule and reused.
type executor struct {
	p        *Pipeline
	schedule *sched.Schedule
	k, m     int

	mu   sync.Mutex // guards the fields down to last
	walk *sched.Walker
	busy []bool // stage has an op in flight
	// transit[e] holds cross-stage event e's tensor (by Event.Index)
	// until its consumer, which owns it, is dispatched.
	transit []*tensor.Tensor
	// idle[s] is when stage s found its next op not ready; the gap to
	// that op's start is Wait.
	idle    []time.Time
	running int
	aborted bool
	last    time.Time // latest retire: the watchdog's clock

	done  chan struct{} // one token per batch, once nothing runs or will
	timer *time.Timer   // the watchdog, armed per batch

	// Per-batch state; a stage's part is touched only by the goroutine
	// running that stage's op.
	epoch    time.Time
	micros   []*data.Batch
	losses   []float64
	envs     []*compiled.Env // [s·m + micro]; nil = not in flight
	inflight []int
	mets     []StageMetrics
}

// task is one claimed op, stage s's op number i, with its input taken
// from transit (nil when the input is local) and the time its stage had
// been idle since (zero if it was not).
type task struct {
	s, i int
	op   sched.Op
	x    *tensor.Tensor
	idle time.Time
}

func newExecutor(p *Pipeline, schedule *sched.Schedule, m int) *executor {
	k := len(p.Stages)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	return &executor{p: p, schedule: schedule, k: k, m: m, timer: timer,
		walk: sched.NewWalker(schedule), busy: make([]bool, k),
		transit: make([]*tensor.Tensor, 2*k*m), idle: make([]time.Time, k),
		done: make(chan struct{}, 1), losses: make([]float64, m),
		envs: make([]*compiled.Env, k*m), inflight: make([]int, k), mets: make([]StageMetrics, k)}
}

// run executes one batch and returns once no op is in flight: the
// schedule ran to its end, ctx was cancelled, or the watchdog fired.
func (e *executor) run(ctx context.Context, micros []*data.Batch) error {
	p := e.p
	e.epoch, e.micros = time.Now(), micros
	clear(e.transit)
	clear(e.idle)
	clear(e.inflight)
	clear(e.mets)
	e.walk.Reset()
	e.aborted, e.last = false, e.epoch
	e.mu.Lock()
	e.drive(0, e.epoch)
	err := e.wait(ctx)

	for s := 0; s < e.k; s++ {
		// Recycle the Envs stranded by an abort: the ownership of their
		// in-flight tensors is indeterminate, so ResetMicro drops the
		// references without releasing.
		for i, env := range e.envs[s*e.m : (s+1)*e.m] {
			if env != nil {
				env.ResetMicro()
				p.envFree[s] = append(p.envFree[s], env)
				e.envs[s*e.m+i] = nil
			}
		}
		met, instr := e.mets[s], p.stageInstr[s]
		p.metrics[s] = met
		instr.waitSec.Add(met.Wait.Seconds())
		instr.bubbleFrac.Set(met.BubbleFraction())
		instr.peakInFlight.SetMax(float64(met.PeakInFlight))
	}
	return err
}

// drive, entered with mu held, runs ready ops until no idle stage has
// one, then sends the batch's token if nothing runs or will; it returns
// with mu released. Each round scans the stages from stage from: the
// first ready op is this goroutine's, each other one gets a goroutine.
func (e *executor) drive(from int, now time.Time) {
	for {
		mine, ok := task{}, false
		for j := 0; j < e.k && !e.aborted; j++ {
			s := (from + j) % e.k
			op, ready := e.walk.Next(s)
			if !e.busy[s] && !ready && e.idle[s].IsZero() {
				e.idle[s] = now
			}
			if e.busy[s] || !ready {
				continue
			}
			e.busy[s] = true
			e.running++
			t := task{s: s, i: e.walk.Pos(s), op: op, idle: e.idle[s]}
			e.idle[s] = time.Time{}
			if in, _ := op.Deps(s, e.k); in.Kind != sched.NoEvent && in.Stage != s {
				i := in.Index(e.k, e.m)
				t.x, e.transit[i] = e.transit[i], nil
			}
			if ok {
				go func() { e.drive(e.do(t)) }()
			} else {
				mine, ok = t, true
			}
		}
		if !ok {
			last := e.running == 0 && (e.aborted || e.walk.Left() == 0)
			e.mu.Unlock()
			if last {
				e.done <- struct{}{}
			}
			return
		}
		e.mu.Unlock()
		from, now = e.do(mine)
	}
}

// do runs t, then retires it under mu, which it returns holding, with
// t's stage and end time.
func (e *executor) do(t task) (int, time.Time) {
	out, end := e.exec(t)
	e.mu.Lock()
	if out != nil {
		_, ev := t.op.Deps(t.s, e.k)
		e.transit[ev.Index(e.k, e.m)] = out
	}
	e.walk.Retire(t.s)
	e.busy[t.s] = false
	e.running--
	e.last = end
	return t.s, end
}

// wait blocks until the batch's token arrives, aborting the batch when
// ctx is done or no op has retired for the watchdog window.
func (e *executor) wait(ctx context.Context) error {
	p := e.p
	var tick <-chan time.Time
	if p.watchdog > 0 {
		// A tick left over from an earlier batch only makes the first
		// check early.
		e.timer.Reset(p.watchdog)
		tick = e.timer.C
	}
	for {
		select {
		case <-e.done:
			return nil
		case <-ctx.Done():
			return e.abort(ctx.Err())
		case <-tick:
			e.mu.Lock()
			idle := time.Since(e.last)
			var stall *StallError
			if idle >= p.watchdog {
				stall = p.stallError(e.schedule, e.walk, idle)
			}
			e.mu.Unlock()
			if stall == nil {
				e.timer.Reset(p.watchdog - idle)
				continue
			}
			p.stalls.Inc()
			p.obs.Events().Emit(obs.Event{Type: obs.EventWatchdogStall,
				Replica: p.pipeID, Round: -1, Value: idle.Seconds(),
				Detail: stall.Error()})
			return e.abort(stall)
		}
	}
}

// abort stops dispatch and waits for the ops in flight to finish. It
// returns err, or nil when every op had already retired.
func (e *executor) abort(err error) error {
	e.mu.Lock()
	e.aborted = true
	idle, finished := e.running == 0, e.walk.Left() == 0
	e.mu.Unlock()
	if !idle || finished {
		<-e.done // sent by the last op in flight, or already at finish
	}
	if finished {
		return nil
	}
	return err
}

// exec runs one op by replaying its stage's compiled program, outside
// mu: no kernel dispatch, no lifetime decisions, no arena traffic in
// steady state. A Fwd binds the micro-batch's input, replays the forward
// ops and returns the output for the next stage. Backward is split
// 2BP-style: BwdIn binds the output gradient (the last stage derives it
// from the loss), replays the grad-input ops and returns dx for the
// stage before; BwdW replays the grad-weight ops, which is when the
// micro-batch's Env (its activation stash) retires. A combined Bwd runs
// both halves. exec returns the tensor shipped to another stage, if
// any, and when the op ended.
func (e *executor) exec(t task) (*tensor.Tensor, time.Time) {
	p, s, op := e.p, t.s, t.op
	met, instr := &e.mets[s], p.stageInstr[s]
	start := time.Now()
	if !t.idle.IsZero() {
		met.Wait += start.Sub(t.idle)
	}
	if d := p.faults.StageDelay(p.pipeID, s, t.i); d > 0 {
		// Injected straggler: the op still computes, just slowly, so
		// the slowdown shows up in Busy and the per-op trace.
		time.Sleep(d)
	}
	var out *tensor.Tensor
	envs := e.envs[s*e.m : (s+1)*e.m]
	env := envs[op.Micro]
	switch op.Kind {
	case sched.Fwd:
		x := t.x
		if s == 0 {
			x = e.micros[op.Micro].X
		}
		env = p.getEnv(s, x.Shape())
		env.BindInput(x)
		env.Forward()
		envs[op.Micro] = env
		e.inflight[s]++
		met.Fwd++
		met.PeakInFlight = max(met.PeakInFlight, e.inflight[s])
		if s < e.k-1 {
			out = env.Output()
		}
	case sched.Bwd, sched.BwdIn:
		dy := t.x
		if s == e.k-1 {
			// The loss gradient is local. The logits live in the Env
			// (slot storage, or a dynamic tensor ReleaseOutput frees).
			loss, dlogits := nn.CrossEntropy(env.Output(), e.micros[op.Micro].Targets)
			env.ReleaseOutput()
			e.losses[op.Micro] = loss
			dy = dlogits
		}
		env.BindGradIn(dy)
		env.BackwardInput()
		if s > 0 {
			out = env.GradOut()
		}
		met.Bwd++
	case sched.BwdW:
		met.BwdW++
	}
	if op.Kind == sched.Bwd || op.Kind == sched.BwdW {
		// The grad-weight half retires the micro's Env to the free list:
		// this is where the schedule's in-flight count drops.
		env.BackwardWeights()
		env.EndMicro()
		envs[op.Micro] = nil
		p.envFree[s] = append(p.envFree[s], env)
		e.inflight[s]--
	}
	end := time.Now()
	dur := end.Sub(start)
	met.Busy += dur
	pass, hist, ops := &met.BwdTime, instr.bwdSec, instr.bwdOps
	if op.Kind == sched.Fwd {
		pass, hist, ops = &met.FwdTime, instr.fwdSec, instr.fwdOps
	}
	*pass += dur
	hist.Observe(dur.Seconds())
	ops.Inc()
	if p.Trace {
		met.Ops = append(met.Ops, OpEvent{Index: t.i, Kind: op.Kind, Micro: op.Micro,
			Start: start.Sub(e.epoch), Dur: dur})
	}
	return out, end
}

// getEnv takes a free Env of stage s bound to the input shape, or
// builds one; a stage sees one or two input shapes.
func (p *Pipeline) getEnv(s int, shape []int) *compiled.Env {
	free := p.envFree[s]
	for i, env := range free {
		if slices.Equal(env.InShape(), shape) {
			last := len(free) - 1
			free[i], free[last] = free[last], nil
			p.envFree[s] = free[:last]
			return env
		}
	}
	return p.progs[s].NewEnv(shape)
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
