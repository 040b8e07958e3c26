package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
// the shell around it.
type Averager struct {
	// Alpha is the dilution coefficient; 1/N empirically (§3.2).
	Alpha float64
	// N is the number of parallel pipelines.
	N int

	// mu guards proto, the reference, detachedAt, detachWait and timer.
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
	// detachWait[f] receives the outcome of local Detach frame f.
	detachWait map[*netx.Frame]chan bool
	// timer fires at proto's next deadline; every event re-arms it.
	timer *time.Timer

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
	snapshots [][]*tensor.Tensor
	builders  []tensor.RunBuilder

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

	// refState hands a peer's FrameRefState reply from the inbound loop
	// to a waiting ResumeReplica.
	refState chan *netx.Frame

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
// otherwise). Metrics go to reg (nil = obs.Default()).
func NewAveragerObs(n int, init []*nn.Param, reg *obs.Registry) *Averager {
	if n <= 0 {
		panic("core: need at least one pipeline")
	}
	if reg == nil {
		reg = obs.Default()
	}
	a := &Averager{
		Alpha:      1 / float64(n),
		N:          n,
		proto:      newProtocol[[]*tensor.Runs](n),
		snapshots:  make([][]*tensor.Tensor, n),
		builders:   make([]tensor.RunBuilder, n),
		detachedAt: make([]time.Time, n),
		detachWait: make(map[*netx.Frame]chan bool),
		refState:   make(chan *netx.Frame, 1),
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
		decodeErrs: reg.Counter("avgpipe_avg_decode_errors_total",
			"Update frames dropped because their payload failed to decode or did not fit the model."),
		events: reg.Events(),
	}
	// The loopback pipe is the refactored §3.2 update queue: unbounded
	// (capacity 0), so SubmitContext never blocks a pipeline, and
	// instrumented under the historical queue name.
	a.loopTx, a.loopRx = netx.InstrumentedPipe(0, reg, "averager")
	a.tx = a.loopTx
	a.drainCond = sync.NewCond(&a.drainMu)
	a.timer = time.AfterFunc(time.Hour, a.tick) // armed by closeAndUnlock
	a.timer.Stop()
	src := make([]*tensor.Tensor, len(init))
	a.ref = make([]*tensor.Tensor, len(init))
	for i, p := range init {
		src[i], a.ref[i] = p.W, tensor.New(p.W.Shape()...)
	}
	a.refMoves = make([]bool, len(a.ref))
	for p := range a.snapshots {
		a.snapshots[p] = cloneTensors(a.ref)
	}
	a.installRefLocked(src)
	go a.referenceLoop()
	return a
}

// installRefLocked makes src the reference and every pipeline's delta
// baseline — the one way a whole reference arrives: at construction, on
// checkpoint restore, and from a peer when a restarted replica resumes.
// Caller holds a.mu (or owns a).
func (a *Averager) installRefLocked(src []*tensor.Tensor) {
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
// remote delivery of an update.
func (a *Averager) recomposeTx() {
	base := netx.FanOut(a.loopTx, a.mesh)
	a.tx = netx.Faulty(base, a.faults, func() {
		// A delayed update finally lost to a closed connection: undo its
		// drain accounting so Close's drain cannot park on it.
		a.lateUpdates.Inc()
		a.tally(-1, 0)
	})
}

// AttachMesh joins this averager to a multi-process elastic-averaging
// job: submits fan out along the mesh's topology, and peer updates and
// membership frames arrive over its inbound connections, relayed onward
// on sparse topologies so every frame reaches all N replicas. Every
// process applies the same deterministic reduction to its own reference
// copy, so the copies stay bit-identical without a coordinator. Call
// before training starts.
func (a *Averager) AttachMesh(m *netx.Mesh) {
	if m.N != a.N {
		panic(fmt.Sprintf("core: mesh has %d replicas, averager has %d", m.N, a.N))
	}
	a.mesh = m
	a.recomposeTx()
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

// inboundLoop ingests the frames peer from sends us until the connection
// closes. Frames every replica must see are first relayed to the
// topology's next hops (best effort: a relay lost to a dead link is
// absorbed by the round deadline), and a reference-state reply addressed
// to someone else is routed onward.
func (a *Averager) inboundLoop(from int, c netx.Conn) {
	for {
		f, err := c.Recv(context.Background())
		if err != nil {
			return
		}
		switch f.Type {
		case netx.FrameUpdate, netx.FrameUpdateQ8, netx.FrameUpdateQ16, netx.FrameUpdateTopK,
			netx.FrameDetach, netx.FrameRejoin:
			// Updates and membership changes queue behind each other, so
			// the protocol sees a peer's update before that peer's detach.
			_ = a.mesh.Forward(context.Background(), from, f)
			if a.loopTx.Send(context.Background(), f) != nil {
				return // shutting down; the round deadline absorbs the loss
			}
		case netx.FrameRefRequest:
			// A restarted peer asking to reseed: reply with our current
			// reference state and the round it should join from.
			_ = a.mesh.Forward(context.Background(), from, f)
			a.sendRefState(int(f.Replica))
		case netx.FrameRefState:
			if to := int(f.Meta); to != a.mesh.Self {
				// Addressed to another replica: a routed hop, not ours.
				_ = a.mesh.Route(context.Background(), to, f)
				continue
			}
			select {
			case a.refState <- f:
			default: // no ResumeReplica waiting (duplicate reply): drop
			}
		case netx.FrameClockPing:
			// A peer re-measuring its clock offset mid-run (see
			// Mesh.ResyncClock); answer on the same connection.
			if netx.AnswerClockPing(context.Background(), c, a.self(), f) != nil {
				return
			}
		}
	}
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
	now := time.Now()
	a.mu.Lock()
	a.proto.deadline = d
	a.closeAndUnlock(now, a.proto.settle(now))
}

// tick closes the rounds whose deadline has passed.
func (a *Averager) tick() {
	now := time.Now()
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
		switch f.Type {
		case netx.FrameDetach:
			a.detach(f)
		case netx.FrameRejoin:
			// The rejoining process reseeds its own weights from its
			// reference copy; peers only mark it live again, admitted
			// from the join round the announcement carries.
			a.rejoin(int(f.Replica), nil, int(f.Round))
		default:
			a.ingest(f)
		}
	}
}

// updateDeltas returns an update frame's deltas in run form, or false
// when they failed to decode or do not fit the model tensor for tensor (a
// peer running another model): such a frame is dropped, not applied. The
// reference's shapes never change, so no lock is needed.
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
	if len(deltas) != len(a.ref) {
		return nil, false
	}
	for i, d := range deltas {
		if d.Size() != a.ref[i].Size() {
			return nil, false
		}
	}
	return deltas, true
}

// ingest hands one update frame — a pipeline's local update for a round
// (§3.2 step ❸) — to the protocol and applies whatever rounds that
// closes.
func (a *Averager) ingest(f *netx.Frame) {
	deltas, fits := a.updateDeltas(f)
	if !fits {
		a.decodeErrs.Inc()
		a.tally(0, 1) // the frame is accounted for, not applied
		return
	}
	now := time.Now()
	a.mu.Lock()
	cs, ok, stale := a.proto.arrive(now, int(f.Replica), int(f.Round), deltas)
	a.closeAndUnlock(now, cs)
	if ok {
		a.staleRounds.Observe(float64(stale))
		a.updates.Inc()
	} else {
		a.lateUpdates.Inc()
	}
	a.tally(0, 1)
}

// closeAndUnlock finishes a protocol event the caller ran under a.mu:
// it applies the rounds the event closed to the reference in the order
// they closed, points the deadline timer at the protocol's next
// deadline, and releases a.mu. Then it records the closures and wakes
// waiters, unlocked because event sinks may call back into the averager.
func (a *Averager) closeAndUnlock(now time.Time, cs []closure[[]*tensor.Runs]) {
	for _, c := range cs {
		start := time.Now()
		applyRound(a.ref, a.refMoves, c.payloads)
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
	if at, ok := a.proto.nextDeadline(); ok {
		a.timer.Reset(at.Sub(now))
	} else {
		a.timer.Stop()
	}
	open := len(a.proto.open)
	a.mu.Unlock()
	a.openRounds.Set(float64(open))
	for _, c := range cs {
		switch c.why {
		case closeQuorum:
			a.roundSec.Observe(time.Since(c.first).Seconds())
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
// that arrived first counts here as on a peer that detaches later; it
// returns once the reference loop has run it, so never call it from an
// event sink. A second Detach of the same replica is a no-op.
func (a *Averager) Detach(p int) {
	f := &netx.Frame{Type: netx.FrameDetach, Replica: uint32(p)}
	done := make(chan bool, 1)
	a.mu.Lock()
	a.detachWait[f] = done
	a.mu.Unlock()
	if a.loopTx.Send(context.Background(), f) != nil {
		a.detach(f) // the reference loop has stopped: nothing is queued ahead
	}
	if <-done {
		a.announce(netx.FrameDetach, p, 0)
	}
}

// detach runs a detach frame on the reference loop and hands a waiting
// local Detach the outcome.
func (a *Averager) detach(f *netx.Frame) {
	p, now := int(f.Replica), time.Now()
	a.mu.Lock()
	w := a.detachWait[f]
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
	} else {
		a.mu.Unlock()
	}
	if w != nil {
		w <- ok
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
		a.recoverySec.Observe(time.Since(det).Seconds())
	}
	a.announce(netx.FrameRejoin, p, join)
}

// announce broadcasts a membership change for the LOCAL replica to the
// mesh. Remote membership changes (applied via inboundLoop) are never
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
// sparse topology can route the reply hop-by-hop (see inboundLoop).
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
// reference state, installs the first reply as this process's
// reference copy (reseeding every delta baseline), and announces the
// rejoin so peers re-admit this replica from the returned join round.
// It returns that round — the round the caller should resume training
// at. Call after AttachMesh and before training starts.
func (a *Averager) ResumeReplica(ctx context.Context) (int, error) {
	if a.mesh == nil {
		return 0, errors.New("core: ResumeReplica needs an attached mesh")
	}
	self := a.mesh.Self
	req := &netx.Frame{Type: netx.FrameRefRequest, Replica: uint32(self)}
	if err := a.mesh.Broadcast(ctx, req); err != nil {
		return 0, fmt.Errorf("core: requesting reference state: %w", err)
	}
	// Re-ask periodically: the request or the reply may be lost while a
	// peer's self-healing connection back to us is still re-dialing.
	var f *netx.Frame
	for f == nil {
		select {
		case f = <-a.refState:
		case <-time.After(refRequestRetry):
			_ = a.mesh.Broadcast(ctx, req)
		case <-ctx.Done():
			return 0, fmt.Errorf("core: waiting for reference state: %w", ctx.Err())
		case <-a.done:
			return 0, errors.New("core: averager closed while waiting for reference state")
		}
	}
	if len(f.Tensors) != len(a.ref) {
		return 0, fmt.Errorf("core: peer reference has %d tensors, model has %d", len(f.Tensors), len(a.ref))
	}
	now := time.Now()
	a.mu.Lock()
	a.installRefLocked(f.Tensors)
	cs, join := a.proto.resume(now, self, int(f.Round))
	a.closeAndUnlock(now, cs)
	a.events.Emit(obs.Event{Type: obs.EventReplicaRejoin, Replica: self, Round: join,
		Detail: fmt.Sprintf("reseeded from replica %d's reference", int(f.Replica))})
	a.announce(netx.FrameRejoin, self, join)
	return join, nil
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

// submitRetries bounds SubmitContext's retry loop; the delays between
// attempts follow the shared transport backoff (exponential with
// jitter) starting from submitBackoff.
const (
	submitRetries = 3
	submitBackoff = time.Millisecond
)

// refRequestRetry paces ResumeReplica's re-asks for reference state.
const refRequestRetry = 250 * time.Millisecond

// SubmitContext performs step ❸ for pipeline p after its optimizer has
// applied a local update for the given round: it derives the update
// delta from the previous snapshot, in run form, and sends it to the
// reference model without blocking. A transient send failure is retried
// with exponential backoff (bounded by submitRetries) until ctx is done;
// a pipeline out of range, or submitting after Close, returns an error
// instead of wedging a later DrainContext. When a fault injector is
// installed the update may be delayed or dropped in flight — a dropped
// update is absorbed by the round deadline, never an error.
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
	retry := netx.Backoff{Base: submitBackoff}
	for attempt := 0; ; attempt++ {
		err := a.tx.Send(ctx, f)
		if err == nil {
			if a.tracer != nil {
				a.tracer.Span(avgTracePID, avgTraceSubmitTID, "submit", "avg",
					wallUS(start), float64(time.Since(start).Nanoseconds())/1e3,
					map[string]any{"round": round, "replica": p})
			}
			return nil
		}
		if errors.Is(err, netx.ErrDropped) {
			// Lost in flight by the fault layer: not counted as sent, so
			// DrainContext does not wait for it; the round deadline closes
			// the round without it.
			a.tally(-1, 0)
			return nil
		}
		if attempt >= submitRetries {
			a.tally(-1, 0)
			return fmt.Errorf("after %d attempts: %w", attempt+1, err)
		}
		if err := retry.Sleep(ctx); err != nil {
			a.tally(-1, 0)
			return err
		}
	}
}

// updateFrame derives pipeline p's update for round as the frame
// SubmitContext sends: the run-form deltas against its snapshot, or their
// compressed blob under a compression codec.
func (a *Averager) updateFrame(p, round int, params []*nn.Param) (*netx.Frame, error) {
	deltas := make([]*tensor.Runs, len(params))
	var sent, total int
	for i, pr := range params {
		deltas[i] = a.builders[p].Sub(pr.W, a.snapshots[p][i])
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
// reference copy — the distributed round barrier. Unlike DrainContext,
// whose watermarks only see local submits, it also waits for the peer
// updates a multi-process job delivers over the mesh. It returns
// ctx.Err() if ctx ends first.
//
// With a round deadline armed, a round whose every update was lost in
// flight closes empty once the deadline has passed since it was first
// awaited; without one it blocks until ctx ends, as the single-process
// round does.
func (a *Averager) WaitRound(ctx context.Context, round int) error {
	stop := context.AfterFunc(ctx, func() { a.tally(0, 0) })
	defer stop()
	now := time.Now()
	a.mu.Lock()
	a.proto.await(now, round)
	a.closeAndUnlock(now, nil)
	a.drainMu.Lock()
	defer a.drainMu.Unlock()
	for !a.RoundClosed(round) && ctx.Err() == nil {
		a.drainCond.Wait()
	}
	return ctx.Err()
}

// Dilute performs step ❷ for pipeline p: its weights are mixed with the
// current reference model in ratio (1−α):α, and the post-dilution weights
// become the baseline for the next round's delta. Callers that want exact
// synchronous elastic-averaging semantics drain (DrainContext, or
// WaitRound across processes) between SubmitContext and Dilute so the
// reference already includes the round's updates; the fully asynchronous
// mode Dilutes right after SubmitContext against whatever reference is
// current, never blocking the pipeline.
func (a *Averager) Dilute(p int, params []*nn.Param) {
	alpha := float32(a.Alpha)
	a.mu.RLock()
	for i, pr := range params {
		tensor.Dilute(alpha, pr.W, a.ref[i], a.snapshots[p][i])
	}
	a.mu.RUnlock()
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
