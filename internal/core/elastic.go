package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"avgpipe/internal/fault"
	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
)

// Averager implements the elastic-averaging-based framework of §3.2. It
// maintains the reference model (the centre of the parallel models) and
// coordinates N parallel pipelines:
//
//	step ❶  each pipeline trains locally with any Optimizer,
//	step ❷  the pipeline's weights are diluted with the reference weights
//	        in ratio (1−α):α,
//	step ❸  the local update is sent to the reference model via an async
//	        queue,
//	step ❹  the reference process accumulates one update per pipeline,
//	step ❺  once all live pipelines arrive it normalizes and applies them.
//
// Because the elastic pull lives here — outside any optimizer — AvgPipe
// composes with Adam, AdaGrad, ASGD, or plain SGD unchanged (§3.1).
//
// The reference model decouples the pipelines, which makes failure
// survivable by design: a replica may Detach (crash) and later Rejoin by
// reseeding from the reference; rounds renormalize over the replicas
// that are actually live; and with SetRoundDeadline a round whose
// stragglers never report is closed over the updates that did arrive
// instead of wedging the reference loop forever. Which round closes
// when is the protocol core's decision (protocol.go); the Averager is
// the shell around it: a handler per inbound frame (receive) and per
// frame the reference loop dequeues (run), on one clock. Production
// runs the handlers from receive loops; the explorer calls them itself.
type Averager struct {
	// Alpha is the dilution coefficient; 1/N empirically (§3.2).
	Alpha float64
	// N is the number of parallel pipelines.
	N int

	// mu guards proto, the reference, detachedAt, detachWait, resumeWait
	// and timer.
	mu    sync.RWMutex
	proto *protocol[[]*tensor.Runs]
	ref   []*tensor.Tensor
	// refMoves[i] records that ref[i] may hold a coefficient adding zero
	// would move (−0, a signalling NaN): set when a reference is
	// installed, cleared once an apply pass finds none left. Only then
	// do the +0 coefficients an update skips need touching (see
	// tensor.AxpyRuns).
	refMoves   []bool
	detachedAt []time.Time
	// detachWait[f] is signalled once the loop has run local Detach frame
	// f; resumeWait receives the outcome of a waiting ResumeReplica.
	detachWait map[*netx.Frame]chan struct{}
	resumeWait chan resumed
	// clock is the one time source; timer fires tick at proto's next
	// deadline, and every event re-arms it (nil on a virtual clock).
	clock clock
	timer *time.Timer
	// observe, when set, sees each closure right after it is applied,
	// under mu: the explorer's view of the rounds (explore_test.go).
	observe func(closure[[]*tensor.Runs])

	// The update stream is a transport connection: pipelines submit on
	// tx, the reference loop receives on loopRx. tx is the composed
	// path — the local loopback, fanned out to the mesh peers when a
	// multi-process mesh is attached, wrapped by the fault layer when
	// an injector is installed.
	loopTx netx.Conn
	loopRx netx.Conn
	tx     netx.Conn
	mesh   *netx.Mesh

	// snapshots[p] is pipeline p's weights after its previous round,
	// used to derive local update deltas; builders[p] derives them.
	// snapGen names the snapshots' state: every install of a snapshot
	// other than Dilute's bumps it under mu, so a row-tracked
	// parameter's record that Dilute synced to an older state proves
	// nothing (see updateFrame).
	snapshots [][]*tensor.Tensor
	builders  []tensor.RunBuilder
	snapGen   atomic.Uint64
	// settled[p][i] is what pipeline p's Dilute of row-tracked parameter
	// i keeps to skip settled rows, made by its first call; applyRound
	// writes its touched rows under mu.
	settled [][]*rowSettle

	// faults, when set, decides the fate of each submitted update.
	faults *fault.Injector

	// codec selects the update wire encoding (CodecNone = exact f32);
	// comps holds one error-feedback compressor per submitting pipeline
	// — residuals are sender state, so they are never shared.
	codec netx.Codec
	comps []*netx.Compressor

	// drainMu guards the sent/applied counters; drainCond wakes
	// DrainContext and WaitRound waiters (see tally).
	drainMu   sync.Mutex
	drainCond *sync.Cond
	sent      int64
	applied   int64

	done   chan struct{}
	closed sync.Once

	// Metrics, described where NewAveragerObs registers them.
	roundSec    *obs.Histogram
	staleRounds *obs.Histogram
	updates     *obs.Counter
	openRounds  *obs.Gauge
	detaches    *obs.Counter
	rejoins     *obs.Counter
	recoverySec *obs.Histogram
	degraded    *obs.Gauge
	expired     *obs.Counter
	lateUpdates *obs.Counter
	updateBytes *obs.Counter
	coeffsSent  *obs.Counter
	coeffsSkip  *obs.Counter
	rowsDiluted *obs.Counter
	rowsSettled *obs.Counter
	rowsChanged *obs.Counter
	decodeErrs  *obs.Counter
	// events receives membership and round-health events (the registry's
	// event log); tracer, when set, records submit/apply spans on wall-
	// clock timestamps for cross-replica trace merging.
	events *obs.EventLog
	tracer *obs.Tracer
}

// NewAveragerObs builds the framework around an initial model: the
// reference model starts as a copy of init, and all N pipelines are
// assumed to start from weights equal to init (use SeedReplica
// otherwise). Metrics go to reg (nil = obs.Default()). It starts the
// reference loop.
func NewAveragerObs(n int, init []*nn.Param, reg *obs.Registry) *Averager {
	if reg == nil {
		reg = obs.Default()
	}
	// The loopback pipe is the refactored §3.2 update queue: unbounded
	// (capacity 0), so SubmitContext never blocks a pipeline, and
	// instrumented under the historical queue name.
	tx, rx := netx.InstrumentedPipe(0, reg, "averager")
	a := newAverager(n, init, reg, wallClock{}, tx, rx)
	go a.referenceLoop()
	return a
}

// newAverager builds an Averager whose update queue is the connection
// pair loopTx → loopRx, on clock clk. It starts no goroutine.
func newAverager(n int, init []*nn.Param, reg *obs.Registry, clk clock, loopTx, loopRx netx.Conn) *Averager {
	if n <= 0 {
		panic("core: need at least one pipeline")
	}
	a := &Averager{
		Alpha:      1 / float64(n),
		N:          n,
		proto:      newProtocol[[]*tensor.Runs](n),
		snapshots:  make([][]*tensor.Tensor, n),
		settled:    make([][]*rowSettle, n),
		builders:   make([]tensor.RunBuilder, n),
		detachedAt: make([]time.Time, n),
		detachWait: make(map[*netx.Frame]chan struct{}),
		clock:      clk,
		loopTx:     loopTx,
		loopRx:     loopRx,
		done:       make(chan struct{}),
		roundSec: reg.Histogram("avgpipe_avg_round_seconds",
			"Elastic-averaging round latency: first update arriving to round applied.", nil),
		staleRounds: reg.Histogram("avgpipe_avg_staleness_rounds",
			"Older incomplete rounds pending when an update arrives.",
			obs.LinearBuckets(0, 1, 16)),
		updates: reg.Counter("avgpipe_avg_updates_total",
			"Local updates applied to the reference model."),
		openRounds: reg.Gauge("avgpipe_avg_open_rounds",
			"Rounds currently awaiting straggler pipelines."),
		detaches: reg.Counter("avgpipe_avg_detaches_total",
			"Replicas detached from elastic averaging (crashes)."),
		rejoins: reg.Counter("avgpipe_avg_rejoins_total",
			"Replicas rejoined after reseeding from the reference model."),
		recoverySec: reg.Histogram("avgpipe_avg_recovery_seconds",
			"Detach-to-rejoin latency of recovered replicas.", nil),
		degraded: reg.Gauge("avgpipe_avg_degraded_replicas",
			"Replicas currently detached (0 = full strength)."),
		expired: reg.Counter("avgpipe_avg_rounds_expired_total",
			"Rounds closed at the deadline over a partial update set."),
		lateUpdates: reg.Counter("avgpipe_avg_late_updates_total",
			"Updates discarded because their round had already closed or their replica was not admitted to it."),
		updateBytes: reg.Counter("avgpipe_avg_update_bytes_total",
			"Wire bytes of update payloads this process submitted (one delivery each); divide by rounds for bytes-on-wire per round."),
		coeffsSent: reg.Counter("avgpipe_avg_update_coeffs_total",
			"Delta coefficients of submitted updates, by whether they were sent (bits not +0) or skipped (+0).", "kind", "sent"),
		coeffsSkip: reg.Counter("avgpipe_avg_update_coeffs_total",
			"Delta coefficients of submitted updates, by whether they were sent (bits not +0) or skipped (+0).", "kind", "skipped"),
		rowsDiluted: reg.Counter("avgpipe_avg_dilute_rows_total",
			"Rows of row-tracked parameters Dilute visited, or skipped as settled (their dilution would rewrite the same bits).", "kind", "visited"),
		rowsSettled: reg.Counter("avgpipe_avg_dilute_rows_total",
			"Rows of row-tracked parameters Dilute visited, or skipped as settled (their dilution would rewrite the same bits).", "kind", "skipped"),
		rowsChanged: reg.Counter("avgpipe_avg_dilute_changed_rows_total",
			"Rows of row-tracked parameters whose bits Dilute changed."),
		decodeErrs: reg.Counter("avgpipe_avg_decode_errors_total",
			"Update frames dropped because their payload failed to decode or did not fit the model."),
		events: reg.Events(),
	}
	a.drainCond = sync.NewCond(&a.drainMu)
	a.recomposeTx()
	if a.timer = clk.AfterFunc(time.Hour, a.tick); a.timer != nil {
		a.timer.Stop() // armed by closeAndUnlock
	}
	src := make([]*tensor.Tensor, len(init))
	a.ref = make([]*tensor.Tensor, len(init))
	for i, p := range init {
		src[i], a.ref[i] = p.W, tensor.New(p.W.Shape()...)
	}
	a.refMoves = make([]bool, len(a.ref))
	for p := range a.snapshots {
		a.snapshots[p] = cloneTensors(a.ref)
		a.settled[p] = make([]*rowSettle, len(a.ref))
	}
	a.installRefLocked(src)
	return a
}

// clock is the shell's one time source: every reading the protocol gets,
// the deadline timer and the ref-request retry. Production uses the wall
// clock. The explorer's virtual clock has no timers (AfterFunc returns
// nil): it calls tick itself when the protocol's next deadline falls due.
type clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) *time.Timer
}

type wallClock struct{}

func (wallClock) Now() time.Time                                  { return time.Now() }
func (wallClock) AfterFunc(d time.Duration, f func()) *time.Timer { return time.AfterFunc(d, f) }

// installRefLocked makes src the reference and every pipeline's delta
// baseline — the one way a whole reference arrives: at construction, on
// checkpoint restore, and from a peer when a restarted replica resumes.
// Caller holds a.mu (or owns a).
func (a *Averager) installRefLocked(src []*tensor.Tensor) {
	a.snapGen.Add(1)
	for i, t := range src {
		a.ref[i].CopyFrom(t)
		a.refMoves[i] = a.ref[i].ZeroAddMoves()
		for p := range a.snapshots {
			a.snapshots[p][i].CopyFrom(t)
		}
	}
}

func cloneTensors(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// SeedReplica records pipeline p's actual starting weights so its first
// local update is measured from the right point.
func (a *Averager) SeedReplica(p int, params []*nn.Param) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snapGen.Add(1)
	for i, pr := range params {
		a.snapshots[p][i].CopyFrom(pr.W)
	}
}

// SetTracer installs a tracer on which the averager records "submit"
// and "apply" spans (Cat "avg", wall-clock microsecond timestamps) —
// the raw material obs.MergeTraces turns into cross-replica delta
// arrows. Call before training starts; nil disables tracing.
func (a *Averager) SetTracer(tr *obs.Tracer) {
	a.tracer = tr
	if tr != nil {
		tr.Process(avgTracePID, "averaging")
		tr.Thread(avgTracePID, avgTraceSubmitTID, "submit")
		tr.Thread(avgTracePID, avgTraceApplyTID, "apply")
	}
}

// Averaging-span trace coordinates: the averager claims its own process
// row (the pipeline runtime uses PID 1) with one track per direction.
const (
	avgTracePID       = 2
	avgTraceSubmitTID = 1
	avgTraceApplyTID  = 2
)

// wallUS is the wall-clock timestamp in trace microseconds. Averaging
// spans use wall time (not a run-relative clock) so different
// processes' spans can be aligned by their measured clock offsets.
func wallUS(t time.Time) float64 { return float64(t.UnixNano()) / 1e3 }

// self is the local replica id for event attribution: the mesh identity
// in a multi-process job, -1 (all pipelines local) otherwise.
func (a *Averager) self() int {
	if a.mesh != nil {
		return a.mesh.Self
	}
	return -1
}

// SetFaults installs the fault injector consulted on every
// SubmitContext (nil = no faults). Injection happens at the transport
// seam — the submit connection is wrapped so updates are delivered,
// delayed, or dropped in flight (net.Faulty) — rather than inside the
// queue. Call before training starts, not concurrently with
// SubmitContext.
func (a *Averager) SetFaults(in *fault.Injector) {
	a.faults = in
	a.recomposeTx()
}

// recomposeTx rebuilds the submit path from its layers: the local
// loopback, fanned out to mesh peers when attached, with the fault
// layer outermost so one fate verdict governs the local and every
// remote delivery of an update. A delayed update finally lost to a
// closed connection counts as late.
func (a *Averager) recomposeTx() {
	base := netx.FanOut(loopback{Conn: a.loopTx, a: a}, a.mesh)
	a.tx = netx.Faulty(base, a.faults, a.lateUpdates.Inc)
}

// loopback is the local end of the submit path, the reference loop's
// queue. SubmitContext counts an update as sent before it sends it;
// loopback un-counts it exactly when the queue refuses it — at once or,
// for a delayed update, when its hold ends — so the drain watermark
// counts what the local loop will apply, whatever the peers' links do.
type loopback struct {
	netx.Conn
	a *Averager
}

func (l loopback) Send(ctx context.Context, f *netx.Frame) error {
	err := l.Conn.Send(ctx, f)
	if err != nil {
		l.a.tally(-1, 0)
	}
	return err
}

// AttachMesh joins this averager to a multi-process elastic-averaging
// job: submits fan out along the mesh's topology, and peer updates and
// membership frames arrive over its inbound connections, relayed onward
// on sparse topologies so every frame reaches all N replicas. Every
// process applies the same deterministic reduction to its own reference
// copy, so the copies stay bit-identical without a coordinator. Call
// before training starts.
func (a *Averager) AttachMesh(m *netx.Mesh) {
	a.attach(m)
	for _, id := range m.Inbound() {
		go a.inboundLoop(id, m.Recv(id))
	}
	// Under mesh self-healing, a peer that re-dials gets a fresh inbound
	// connection; spawn a receive loop for it (the old loop exits when
	// the mesh closes the replaced connection).
	m.SetInboundHandler(func(id int, c netx.Conn) {
		go a.inboundLoop(id, c)
	})
}

// attach is AttachMesh without the receive loops.
func (a *Averager) attach(m *netx.Mesh) {
	if m.N != a.N {
		panic(fmt.Sprintf("core: mesh has %d replicas, averager has %d", m.N, a.N))
	}
	a.mesh = m
	a.recomposeTx()
}

// inboundLoop receives the frames peer from sends us until the
// connection closes.
func (a *Averager) inboundLoop(from int, c netx.Conn) {
	for {
		f, err := c.Recv(context.Background())
		if err != nil || a.receive(from, c, f) != nil {
			return
		}
	}
}

// receive handles one frame from peer from on connection c. Frames every
// replica must see are first relayed to the topology's next hops (best
// effort: a relay lost to a dead link is absorbed by the round deadline),
// and a reference-state reply addressed to someone else is routed
// onward. An error means the connection or the reference loop is gone.
func (a *Averager) receive(from int, c netx.Conn, f *netx.Frame) error {
	ctx := context.Background()
	switch f.Type {
	case netx.FrameUpdate, netx.FrameUpdateQ8, netx.FrameUpdateQ16, netx.FrameUpdateTopK,
		netx.FrameDetach, netx.FrameRejoin:
		// Updates and membership changes queue behind each other, so the
		// protocol sees a peer's update before that peer's detach. A send
		// error means shutdown; the round deadline absorbs the loss.
		_ = a.mesh.Forward(ctx, from, f)
		return a.loopTx.Send(ctx, f)
	case netx.FrameRefRequest:
		// A restarted peer asking to reseed: reply with our current
		// reference state and the round it should join from.
		_ = a.mesh.Forward(ctx, from, f)
		a.sendRefState(int(f.Replica))
	case netx.FrameRefState:
		if to := int(f.Meta); to != a.mesh.Self {
			_ = a.mesh.Route(ctx, to, f) // a routed hop, not ours
		} else {
			_ = a.resume(f) // a misfit reaches a waiting ResumeReplica
		}
	case netx.FrameClockPing:
		// A peer re-measuring its clock offset mid-run (see
		// Mesh.ResyncClock); answer on the same connection.
		return netx.AnswerClockPing(ctx, c, a.self(), f)
	}
	return nil
}

// SetCompression selects the wire encoding for submitted updates:
// CodecNone (the default) sends exact f32 deltas; any other codec packs
// each pipeline's deltas through its own error-feedback compressor
// (net.Compressor), and every reference copy, the local one included,
// applies the same dequantized values, so dist-mode copies stay
// bit-identical. topkFrac is the kept fraction for CodecTopK (0 =
// net.DefaultTopKFraction). Call before training starts.
func (a *Averager) SetCompression(c netx.Codec, topkFrac float64) error {
	if c == netx.CodecNone {
		a.codec, a.comps = c, nil
		return nil
	}
	comps := make([]*netx.Compressor, a.N)
	for p := range comps {
		comp, err := netx.NewCompressor(c, topkFrac)
		if err != nil {
			return err
		}
		comps[p] = comp
	}
	a.codec, a.comps = c, comps
	return nil
}

// SetRoundDeadline bounds how long an incomplete averaging round may
// wait for stragglers: a round older than d is closed over the updates
// that did arrive (normalized by their count) and recorded as expired,
// so a dropped or crashed replica can never wedge the reference loop.
// d = 0 restores the default (rounds wait forever). Safe to call while
// training, as the heal supervisor does to retune it.
func (a *Averager) SetRoundDeadline(d time.Duration) {
	a.mu.Lock()
	a.proto.deadline = d
	a.mu.Unlock()
	a.tick()
}

// tick closes the rounds whose deadline has passed.
func (a *Averager) tick() {
	now := a.clock.Now()
	a.mu.Lock()
	a.closeAndUnlock(now, a.proto.settle(now))
}

// referenceLoop is the separate reference-model process of §3.2: it
// drains the update stream — local submits and detaches and, in a
// multi-process job, peer updates and membership frames forwarded from
// the mesh — and applies each round as it closes (steps ❹ and ❺).
func (a *Averager) referenceLoop() {
	defer close(a.done)
	for {
		f, err := a.loopRx.Recv(context.Background())
		if err != nil {
			return // closed and drained
		}
		a.run(f)
	}
}

// run handles one frame the reference loop dequeued.
func (a *Averager) run(f *netx.Frame) {
	switch f.Type {
	case netx.FrameDetach:
		a.detach(f)
	case netx.FrameRejoin:
		// The rejoining process reseeds its own weights from its
		// reference copy; peers only mark it live again, admitted from
		// the join round the announcement carries.
		a.rejoin(int(f.Replica), nil, int(f.Round))
	default:
		a.ingest(f)
	}
}

// updateDeltas returns an update frame's deltas in run form, or false
// when they failed to decode or do not fit the model tensor for tensor (a
// peer running another model): such a frame is dropped, not applied.
func (a *Averager) updateDeltas(f *netx.Frame) ([]*tensor.Runs, bool) {
	deltas := f.Runs
	if c, ok := netx.UpdateCodec(f.Type); ok && c != netx.CodecNone {
		// A compressed update: every reference copy dequantizes the
		// same packed payload, so the applied deltas stay identical
		// across processes even though they are lossy.
		ds, err := netx.UnpackUpdateFrame(f)
		if err != nil {
			return nil, false
		}
		deltas = make([]*tensor.Runs, len(ds))
		for i, d := range ds {
			deltas[i] = tensor.RunsOf(d)
		}
	}
	return deltas, fits(a.ref, deltas)
}

// fits reports whether ts match the reference tensor for tensor in size.
// The reference's shapes never change, so no lock is needed.
func fits[T interface{ Size() int }](ref []*tensor.Tensor, ts []T) bool {
	if len(ts) != len(ref) {
		return false
	}
	for i, t := range ts {
		if t.Size() != ref[i].Size() {
			return false
		}
	}
	return true
}

// ingest hands one update frame — a pipeline's local update for a round
// (§3.2 step ❸) — to the protocol and applies whatever rounds that
// closes. A local update then counts as processed in the drain
// watermark, accepted or not; a peer's was never counted as sent here,
// so it moves no watermark.
func (a *Averager) ingest(f *netx.Frame) {
	if a.mesh == nil || int(f.Replica) == a.mesh.Self {
		defer a.tally(0, 1)
	}
	deltas, ok := a.updateDeltas(f)
	if !ok {
		a.decodeErrs.Inc()
		return
	}
	now := a.clock.Now()
	a.mu.Lock()
	cs, ok, stale := a.proto.arrive(now, int(f.Replica), int(f.Round), deltas)
	a.closeAndUnlock(now, cs)
	if ok {
		a.staleRounds.Observe(float64(stale))
		a.updates.Inc()
	} else {
		a.lateUpdates.Inc()
	}
}

// closeAndUnlock finishes a protocol event the caller ran under a.mu:
// it applies the rounds the event closed to the reference in the order
// they closed, points the deadline timer at the protocol's next
// deadline, and releases a.mu. Then it records the closures and wakes
// waiters, unlocked because event sinks may call back into the averager.
func (a *Averager) closeAndUnlock(now time.Time, cs []closure[[]*tensor.Runs]) {
	for _, c := range cs {
		start := time.Now()
		applyRound(a.ref, a.refMoves, c.payloads, a.settled)
		if a.observe != nil {
			a.observe(c)
		}
		if a.tracer != nil {
			// One apply span per contributing delta, so each remote
			// submit has a span to land its flow arrow on.
			ts := wallUS(start)
			dur := float64(time.Since(start).Nanoseconds()) / 1e3
			for _, p := range c.from {
				a.tracer.Span(avgTracePID, avgTraceApplyTID, "apply", "avg",
					ts, dur, map[string]any{"round": c.round, "from": p})
			}
		}
	}
	if at, ok := a.proto.nextDeadline(); ok && a.timer != nil {
		a.timer.Reset(at.Sub(now))
	} else if a.timer != nil {
		a.timer.Stop()
	}
	open := len(a.proto.open)
	a.mu.Unlock()
	a.openRounds.Set(float64(open))
	for _, c := range cs {
		switch c.why {
		case closeQuorum:
			a.roundSec.Observe(a.clock.Now().Sub(c.first).Seconds())
		case closeDeadline, closeEmpty:
			a.expired.Inc()
			detail := "round closed over a partial update set"
			if c.why == closeEmpty {
				detail = "round closed empty: every update lost in flight"
			}
			a.events.Emit(obs.Event{Type: obs.EventRoundDeadlineMissed,
				Replica: a.self(), Round: c.round, Value: float64(len(c.from)), Detail: detail})
		}
	}
	a.tally(0, 0)
}

// tally moves the drain watermarks (sent: updates submitted, applied:
// update frames the reference loop processed) and wakes every
// DrainContext and WaitRound waiter; tally(0, 0) only wakes them. The
// lock pairs with a waiter holding drainMu from its check to its Wait, so
// no wakeup is lost.
func (a *Averager) tally(sent, applied int64) {
	a.drainMu.Lock()
	a.sent += sent
	a.applied += applied
	a.drainCond.Broadcast()
	a.drainMu.Unlock()
}

// Detach removes pipeline p from elastic averaging — the crash path.
// Rounds in flight renormalize over the remaining live replicas, so a
// round waiting only on the detached replica completes immediately and
// later rounds complete at the reduced strength. Like a peer's detach
// frame it queues behind every frame already received, so an update
// that arrived first counts here as on a peer that detaches later. The
// reference loop runs it and announces a self-detach to the peers;
// Detach returns once it has, so never call it from an event sink. A
// second Detach of the same replica is a no-op.
func (a *Averager) Detach(p int) { <-a.queueDetach(p) }

// queueDetach is Detach's non-blocking half: it queues the detach frame
// on the reference loop, which signals ran once it has run it.
func (a *Averager) queueDetach(p int) (ran chan struct{}) {
	f := &netx.Frame{Type: netx.FrameDetach, Replica: uint32(p)}
	ran = make(chan struct{}, 1)
	a.mu.Lock()
	a.detachWait[f] = ran
	a.mu.Unlock()
	if a.loopTx.Send(context.Background(), f) != nil {
		a.detach(f) // the reference loop has stopped: nothing is queued ahead
	}
	return ran
}

// detach runs a detach frame on the reference loop and releases a local
// Detach. A self-detach that took effect is announced to the peers; a
// peer's frame never names this replica.
func (a *Averager) detach(f *netx.Frame) {
	p, now := int(f.Replica), a.clock.Now()
	a.mu.Lock()
	ran := a.detachWait[f]
	delete(a.detachWait, f)
	cs, ok := a.proto.detach(now, p)
	if ok {
		a.detachedAt[p] = now
		degraded := a.N - a.proto.liveN
		a.closeAndUnlock(now, cs)
		a.detaches.Inc()
		a.degraded.Set(float64(degraded))
		a.events.Emit(obs.Event{Type: obs.EventReplicaDetach, Replica: p, Round: -1,
			Value: float64(degraded)})
		a.announce(netx.FrameDetach, p, 0)
	} else {
		a.mu.Unlock()
	}
	if ran != nil {
		ran <- struct{}{}
	}
}

// Rejoin returns a detached pipeline p to elastic averaging: its weights
// are reseeded from the current reference model (the elastic pull that
// re-centres a returning replica) and its delta baseline reset to match,
// so its first update after recovery is measured from the right point.
func (a *Averager) Rejoin(p int, params []*nn.Param) { a.rejoin(p, params, -1) }

// rejoin is Rejoin from a given round, used when a peer's rejoin
// announcement carries the round it joins from (join < 0: from the
// watermark).
func (a *Averager) rejoin(p int, params []*nn.Param, join int) {
	a.mu.Lock()
	join, ok := a.proto.rejoin(p, join)
	if !ok {
		a.mu.Unlock()
		return
	}
	a.snapGen.Add(1)
	for i, pr := range params {
		pr.W.CopyFrom(a.ref[i])
		a.snapshots[p][i].CopyFrom(a.ref[i])
	}
	det := a.detachedAt[p]
	degraded := a.N - a.proto.liveN
	a.mu.Unlock()
	a.rejoins.Inc()
	a.degraded.Set(float64(degraded))
	a.events.Emit(obs.Event{Type: obs.EventReplicaRejoin, Replica: p, Round: join,
		Value: float64(degraded)})
	if !det.IsZero() {
		a.recoverySec.Observe(a.clock.Now().Sub(det).Seconds())
	}
	a.announce(netx.FrameRejoin, p, join)
}

// announce broadcasts a membership change for the LOCAL replica to the
// mesh. Remote membership changes (applied via receive) are never
// re-announced — they are only relayed along the topology, whose relay
// rule is loop-free by construction — so the coordinator-free protocol
// cannot echo.
func (a *Averager) announce(t netx.FrameType, p, round int) {
	if a.mesh == nil || p != a.mesh.Self {
		return
	}
	// Best effort: a peer that is itself gone cannot be told.
	_ = a.mesh.Broadcast(context.Background(), &netx.Frame{Type: t, Replica: uint32(p), Round: uint32(round)})
}

// sendRefState answers a restarted peer's FrameRefRequest with a copy
// of the current reference weights and the round the requester should
// join from. Meta carries the destination so intermediate replicas on a
// sparse topology can route the reply hop-by-hop (see receive).
func (a *Averager) sendRefState(to int) {
	if to == a.mesh.Self {
		return
	}
	a.mu.RLock()
	tensors := cloneTensors(a.ref)
	join := a.proto.mark
	a.mu.RUnlock()
	_ = a.mesh.Route(context.Background(), to, &netx.Frame{
		Type: netx.FrameRefState, Replica: uint32(a.mesh.Self),
		Round: uint32(join), Meta: uint32(to), Tensors: tensors,
	})
}

// ResumeReplica re-enters a fully restarted process into a running
// elastic-averaging job: it asks the mesh peers for the current
// reference state and waits for the first reply, which the receive
// handler installs as this process's reference copy (reseeding every
// delta baseline) before it announces the rejoin, so peers re-admit this
// replica from the reply's join round. It returns that round — the round
// the caller should resume training at — or why the reply did not fit
// the model. Call after AttachMesh and before training starts.
func (a *Averager) ResumeReplica(ctx context.Context) (int, error) {
	defer func() { // a reply after we return must not install anything
		a.mu.Lock()
		a.resumeWait = nil
		a.mu.Unlock()
	}()
	req, wait, err := a.requestRef(ctx)
	if err != nil {
		return 0, err
	}
	// Re-ask periodically: the request or the reply may be lost while a
	// peer's self-healing connection back to us is still re-dialing.
	again := make(chan struct{}, 1)
	retry := a.clock.AfterFunc(refRequestRetry, func() { again <- struct{}{} })
	defer retry.Stop()
	for {
		select {
		case r := <-wait:
			return r.join, r.err
		case <-again:
			_ = a.mesh.Broadcast(ctx, req)
			retry.Reset(refRequestRetry)
		case <-ctx.Done():
			return 0, fmt.Errorf("core: waiting for reference state: %w", ctx.Err())
		case <-a.done:
			return 0, errors.New("core: averager closed while waiting for reference state")
		}
	}
}

// resumed is what a reference-state reply gave a waiting ResumeReplica.
type resumed struct {
	join int
	err  error
}

// requestRef is ResumeReplica's non-blocking half: it asks the peers for
// reference state; resume hands wait the outcome of the first reply.
func (a *Averager) requestRef(ctx context.Context) (req *netx.Frame, wait chan resumed, err error) {
	if a.mesh == nil {
		return nil, nil, errors.New("core: ResumeReplica needs an attached mesh")
	}
	wait = make(chan resumed, 1)
	a.mu.Lock()
	a.resumeWait = wait
	a.mu.Unlock()
	req = &netx.Frame{Type: netx.FrameRefRequest, Replica: uint32(a.mesh.Self)}
	if err := a.mesh.Broadcast(ctx, req); err != nil {
		return nil, nil, fmt.Errorf("core: requesting reference state: %w", err)
	}
	return req, wait, nil
}

// resume handles a reference-state reply addressed to this replica. While
// ResumeReplica waits, it installs the peer's reference, admits this
// replica from the reply's join round and announces the rejoin; a reply
// that does not fit the model is refused, and nothing is touched. A reply
// nobody waits for (a duplicate) is dropped.
func (a *Averager) resume(f *netx.Frame) error {
	var err error
	if !fits(a.ref, f.Tensors) {
		err = fmt.Errorf("core: replica %d's reference does not fit the model", f.Replica)
	}
	a.mu.Lock()
	wait := a.resumeWait
	a.resumeWait = nil
	if wait == nil || err != nil {
		a.mu.Unlock()
		if wait != nil {
			wait <- resumed{err: err}
		}
		return err
	}
	self, now := a.mesh.Self, a.clock.Now()
	a.installRefLocked(f.Tensors)
	cs, join := a.proto.resume(now, self, int(f.Round))
	a.closeAndUnlock(now, cs)
	a.events.Emit(obs.Event{Type: obs.EventReplicaRejoin, Replica: self, Round: join,
		Detail: fmt.Sprintf("reseeded from replica %d's reference", int(f.Replica))})
	a.announce(netx.FrameRejoin, self, join)
	wait <- resumed{join: join}
	return nil
}

// LiveReplicas reports how many pipelines currently participate in
// rounds.
func (a *Averager) LiveReplicas() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.proto.liveN
}

// Live reports whether pipeline p currently participates in rounds.
func (a *Averager) Live(p int) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return p >= 0 && p < a.N && a.proto.live[p]
}

// RoundProgress reports the newest round any replica has submitted an
// update for, and per replica the newest round it submitted (-1 before
// its first). The heal supervisor compares the two to spot a replica
// falling a streak of rounds behind the pack.
func (a *Averager) RoundProgress() (latest int, last []int) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.proto.latestRound, append([]int(nil), a.proto.lastRound...)
}

// RoundLatencyQuantile reports the q-quantile (0..1) of observed
// elastic-round latency in seconds, or 0 before any round closed — the
// signal the heal supervisor derives adaptive round deadlines from.
func (a *Averager) RoundLatencyQuantile(q float64) float64 {
	return a.roundSec.Quantile(q)
}

// refRequestRetry paces ResumeReplica's re-asks for reference state.
const refRequestRetry = 250 * time.Millisecond

// SubmitContext performs step ❸ for pipeline p after its optimizer has
// applied a local update for the given round: it derives the update
// delta from the previous snapshot, in run form — for a row-tracked
// parameter scanning only the rows its steps wrote, when its record
// proves the rest unchanged (see updateFrame) — and sends it to the
// reference model without blocking. The update is sent once: no error
// the send can meet is transient (a closed averager or peer link, a
// cancelled context; a self-healing link drops the frame during an
// outage), and a resend would deliver it to the local loop again. A
// pipeline out of range, or submitting after Close, returns an error
// instead of wedging a later DrainContext; a peer link that fails
// returns its error after the local loop received the update. When a
// fault injector is installed the update may be delayed or dropped in
// flight — a dropped update is absorbed by the round deadline, never an
// error.
func (a *Averager) SubmitContext(ctx context.Context, p, round int, params []*nn.Param) error {
	if p < 0 || p >= a.N {
		return fmt.Errorf("pipeline %d out of range [0, %d)", p, a.N)
	}
	if round < 0 {
		return fmt.Errorf("round %d negative", round)
	}
	f, err := a.updateFrame(p, round, params)
	if err != nil {
		return err
	}
	if size, err := netx.FrameWireSize(f); err == nil {
		a.updateBytes.Add(float64(size))
	}
	a.tally(1, 0)
	start := time.Now()
	switch err := a.tx.Send(ctx, f); {
	case errors.Is(err, netx.ErrDropped):
		// Lost in flight by the fault layer, before any delivery: not
		// counted as sent, so DrainContext does not wait for it; the round
		// deadline closes the round without it.
		a.tally(-1, 0)
	case err != nil:
		return err // the loopback un-counted it if the local loop did not get it
	case a.tracer != nil:
		a.tracer.Span(avgTracePID, avgTraceSubmitTID, "submit", "avg",
			wallUS(start), float64(time.Since(start).Nanoseconds())/1e3,
			map[string]any{"round": round, "replica": p})
	}
	return nil
}

// updateFrame derives pipeline p's update for round as the frame
// SubmitContext sends: the run-form deltas against its snapshot, or their
// compressed blob under a compression codec. A row-tracked parameter's
// delta scans only the rows its steps wrote when its record proves W
// equals the snapshot bit for bit everywhere else: this pipeline's last
// Dilute synced it to this snapshot in its current state and found W
// finite, so each w − snapshot outside the rows is x − x = +0.
func (a *Averager) updateFrame(p, round int, params []*nn.Param) (*netx.Frame, error) {
	deltas := make([]*tensor.Runs, len(params))
	var sent, total int
	gen := a.snapGen.Load()
	for i, pr := range params {
		if rows, ok := pr.SteppedRows(a.snapshots[p][i], gen); ok {
			deltas[i] = a.builders[p].SubRows(pr.W, a.snapshots[p][i], rows)
		} else {
			deltas[i] = a.builders[p].Sub(pr.W, a.snapshots[p][i])
		}
		sent += len(deltas[i].Vals)
		total += pr.W.Size()
	}
	a.coeffsSent.Add(float64(sent))
	a.coeffsSkip.Add(float64(total - sent))
	if a.codec == netx.CodecNone {
		return &netx.Frame{Type: netx.FrameUpdate, Replica: uint32(p), Round: uint32(round), Runs: deltas}, nil
	}
	// Compressors quantize or select over the dense delta.
	dense := make([]*tensor.Tensor, len(deltas))
	for i, d := range deltas {
		dense[i] = d.Dense()
	}
	blob, err := a.comps[p].Pack(dense)
	if err != nil {
		return nil, fmt.Errorf("compressing update: %w", err)
	}
	return &netx.Frame{Type: a.codec.UpdateFrameType(), Replica: uint32(p), Round: uint32(round), Blob: blob}, nil
}

// RoundClosed reports whether the round has been applied to the
// reference model (complete, expired, or closed by a detach).
func (a *Averager) RoundClosed(round int) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.proto.isClosed(round)
}

// WaitRound blocks until the given round closes on THIS process's
// reference copy — the round barrier of a training round, in one
// process or many. Unlike DrainContext, whose watermarks only see local
// submits, it also waits for the peer updates a multi-process job
// delivers over the mesh. It returns ctx.Err() if ctx ends first.
//
// The wait starts the round's empty-round clock (the await event):
// with a round deadline armed, a round whose every update was lost in
// flight closes empty once the deadline has passed since it was first
// awaited; without one it blocks until ctx ends. A round that no live
// replica is admitted to closes at once.
func (a *Averager) WaitRound(ctx context.Context, round int) error {
	stop := context.AfterFunc(ctx, func() { a.tally(0, 0) })
	defer stop()
	a.await(round)
	a.drainMu.Lock()
	defer a.drainMu.Unlock()
	for !a.RoundClosed(round) && ctx.Err() == nil {
		a.drainCond.Wait()
	}
	return ctx.Err()
}

// await is WaitRound's event half: it starts the wait for round, from
// which its empty-round deadline runs, and settles, which closes the
// round at once if no replica is admitted to it.
func (a *Averager) await(round int) {
	now := a.clock.Now()
	a.mu.Lock()
	a.proto.await(now, round)
	a.closeAndUnlock(now, a.proto.settle(now))
}

// closeBelow closes every round below round unapplied, for a checkpoint
// restore: the restored reference already holds them.
func (a *Averager) closeBelow(round int) {
	a.mu.Lock()
	a.proto.closeBelow(round)
	a.mu.Unlock()
}

// Dilute performs step ❷ for pipeline p: its weights are mixed with the
// current reference model in ratio (1−α):α, and the post-dilution weights
// become the baseline for the next round's delta. Callers that want exact
// synchronous elastic-averaging semantics call WaitRound between
// SubmitContext and Dilute, so the reference already includes the
// round's updates, in one process or many; the fully asynchronous mode
// Dilutes right after SubmitContext against whatever reference is
// current, never blocking the pipeline. A row-tracked parameter's
// dilution visits only its rows that are not settled (rowSettle), and
// each row-tracked parameter whose diluted weights are all finite is
// synced to its new baseline (nn.Param.SyncRows), so the next delta can
// skip the rows no step writes.
func (a *Averager) Dilute(p int, params []*nn.Param) {
	alpha := float32(a.Alpha)
	var visited, skipped, changed int
	a.mu.RLock()
	gen := a.snapGen.Load()
	for i, pr := range params {
		snap := a.snapshots[p][i]
		var finite bool
		if pr.RowTracked() {
			s := a.settled[p][i]
			if s == nil {
				s = newRowSettle(pr.W.Dim(0))
				a.settled[p][i] = s
			}
			var v int
			finite, v = s.dilute(alpha, pr, a.ref[i], snap, gen)
			visited, skipped, changed = visited+v, skipped+pr.W.Dim(0)-v, changed+s.changed.Len()
		} else {
			finite = tensor.Dilute(alpha, pr.W, a.ref[i], snap)
		}
		if !finite {
			snap = nil
		}
		pr.SyncRows(snap, gen)
	}
	a.mu.RUnlock()
	if visited+skipped > 0 {
		a.rowsDiluted.Add(float64(visited))
		a.rowsSettled.Add(float64(skipped))
		a.rowsChanged.Add(float64(changed))
	}
}

// Reference returns a snapshot (deep copy) of the current reference
// model weights.
func (a *Averager) Reference() []*tensor.Tensor {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return cloneTensors(a.ref)
}

// SetReference overwrites the reference model with src's weights (e.g.
// when resuming from a checkpoint) and re-seeds every pipeline's delta
// baseline to match, so the next local updates are measured from the
// restored point. Call before training resumes, not mid-round.
func (a *Averager) SetReference(src []*nn.Param) {
	if len(src) != len(a.ref) {
		panic("core: SetReference length mismatch")
	}
	ws := make([]*tensor.Tensor, len(src))
	for i, p := range src {
		ws[i] = p.W
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.installRefLocked(ws)
}

// WriteReference copies the current reference weights into dst (e.g. a
// model used for evaluation).
func (a *Averager) WriteReference(dst []*nn.Param) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if len(dst) != len(a.ref) {
		panic("core: WriteReference length mismatch")
	}
	for i, p := range dst {
		p.W.CopyFrom(a.ref[i])
		p.MarkDense()
	}
}

// DrainContext blocks until every update sent so far has been applied,
// so evaluation points observe a consistent reference model. It returns
// ctx.Err() if ctx ends first, leaving the averager consistent if not
// fully drained; under a context that never ends it cannot fail.
func (a *Averager) DrainContext(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { a.tally(0, 0) })
	defer stop()
	a.drainMu.Lock()
	defer a.drainMu.Unlock()
	target := a.sent
	for a.applied < target && ctx.Err() == nil {
		a.drainCond.Wait()
	}
	return ctx.Err()
}

// Close shuts the reference process down after draining pending
// updates. In a multi-process job the mesh connections close first, so
// peer inbound loops stop before the local loopback drains.
func (a *Averager) Close() {
	a.closed.Do(func() {
		_ = a.DrainContext(context.Background())
		if a.mesh != nil {
			a.mesh.Close()
		}
		a.loopTx.Close()
		<-a.done
		a.SetRoundDeadline(0) // stops the deadline timer
	})
}

// PendingRounds reports how many rounds are awaiting stragglers, for
// observability and tests.
func (a *Averager) PendingRounds() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.proto.open)
}
