// Package serve is the inference tier: it puts the elastic averager's
// reference model — the statistically meaningful copy the paper
// evaluates — in front of traffic. A Server batches on its callers'
// goroutines: a caller that finds a model replica idle runs the oldest
// queued requests on it, replaying the compiled eval-mode op graph
// (nn.CompileStageInference), and supports zero-downtime hot-swap of
// model snapshots from two sources: polling a checkpoint directory's
// commit marker (WatchCheckpoints) and receiving FrameSnapshot pushes
// over the internal/net codec from a live training job (ServeSnapshots
// / SnapshotPublisher).
//
// Swap correctness contract: a model version is immutable once
// installed, a batch loads the current version exactly once, and every
// request in that batch is answered from that one version — a swap
// never tears a response across versions. Close drains: every request
// accepted before Close is answered.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"avgpipe/internal/compiled"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// ErrNoModel is returned by Predict before the first model version has
// been installed (the /readyz probe answers 503 for the same reason).
var ErrNoModel = errors.New("serve: no model installed")

// ErrClosed is returned by Predict after Close has begun.
var ErrClosed = errors.New("serve: server closed")

// Config describes a Server. Zero values select the documented
// defaults; Task is required.
type Config struct {
	// Task names the workload being served: its NewModel builds the
	// architecture checkpoints and snapshots are loaded into, and its
	// PerPosition flag fixes the output layout.
	Task *workload.Task
	// MaxBatch caps how many queued requests one batch takes
	// (default 8).
	MaxBatch int
	// Workers is the number of model replicas that may run a batch at
	// once, each with its own compiled Env pool (default 2).
	Workers int
	// Obs receives the serving metrics (a private registry is created
	// when nil).
	Obs *obs.Registry
}

// Result is one answered request.
type Result struct {
	// Predictions is the argmax class per output row of this example:
	// seqLen entries for per-position tasks, one for per-sequence tasks.
	Predictions []int
	// Logits are the raw per-row scores behind Predictions.
	Logits [][]float32
	// Round is the training round of the model version that answered.
	Round int
	// BatchSize is the occupancy of the dynamic batch that carried this
	// request.
	BatchSize int
}

type request struct {
	tokens []int
	start  time.Time
	reply  chan reply    // cap 1: the batch never blocks replying
	wake   chan struct{} // cap 1: a replica is idle, come and run a batch
	taken  bool          // under Server.mu: a batch has taken it off the queue
	busy   bool          // under Server.mu: its caller is running a batch
}

type reply struct {
	res *Result
	err error
}

// replicaModel is one replica's private copy of a model version: its own
// parameter tensors, its own compiled program, and a pool of Envs keyed
// by batch size. A replica runs one batch at a time, so forward replay
// needs no locks.
type replicaModel struct {
	model *nn.Sequential
	prog  *compiled.Program
	envs  map[int]*compiled.Env
	xbuf  map[int]*tensor.Tensor
}

// modelVersion is an immutable installed snapshot. A batch loads the
// pointer once; installs publish a fully built replacement with a
// single atomic store.
type modelVersion struct {
	round    int
	source   string // "checkpoint" | "snapshot"
	replicas []*replicaModel
}

// Server is the batched inference server. Create with New, install a
// model (InstallCheckpoint / InstallSnapshot / a watcher), then call
// Predict from any number of goroutines.
type Server struct {
	cfg    Config
	seqLen int
	vocab  int // -1 when the model has no leading Embedding (no range check)

	cur    atomic.Pointer[modelVersion]
	swapMu sync.Mutex // serializes installs (watch + push may race)

	// mu guards the batching state below; see handoff for its invariant.
	mu      sync.Mutex
	queue   []*request   // FIFO of accepted, not yet batched requests
	idle    []int        // replica ids free to run a batch
	batches [][]*request // per replica: its reusable batch slice
	closed  bool
	freed   sync.Cond // on mu: a replica went idle after Close began

	health *obs.Health

	requests  *obs.Counter
	rejected  *obs.Counter
	swaps     map[string]*obs.Counter
	roundG    *obs.Gauge
	inflight  *obs.Gauge
	latency   *obs.Histogram
	occupancy *obs.Histogram
}

// New builds a Server; it starts no goroutine. No model is installed
// yet: Predict fails with ErrNoModel and /readyz reports 503 until the
// first install.
func New(cfg Config) (*Server, error) {
	if cfg.Task == nil {
		return nil, errors.New("serve: Config.Task is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	// The request geometry comes from the task's own data: the eval
	// batch fixes seqLen, the model's leading Embedding fixes the vocab.
	eval := cfg.Task.NewGen(1).EvalBatch()
	seqLen := eval.X.Dim(0) / eval.Size
	vocab := -1
	probe := cfg.Task.NewModel(1)
	if emb, ok := firstEmbedding(probe); ok {
		vocab = emb.Vocab
	}
	s := &Server{
		cfg:    cfg,
		seqLen: seqLen,
		vocab:  vocab,
		health: obs.NewHealth(),

		requests: cfg.Obs.Counter("avgpipe_serve_requests_total",
			"requests answered (including errors)"),
		rejected: cfg.Obs.Counter("avgpipe_serve_rejected_total",
			"requests rejected before batching (validation, no model, closed)"),
		swaps: map[string]*obs.Counter{
			"checkpoint": cfg.Obs.Counter("avgpipe_serve_swaps_total",
				"model hot-swaps installed", "source", "checkpoint"),
			"snapshot": cfg.Obs.Counter("avgpipe_serve_swaps_total",
				"model hot-swaps installed", "source", "snapshot"),
		},
		roundG: cfg.Obs.Gauge("avgpipe_serve_model_round",
			"training round of the serving model version"),
		inflight: cfg.Obs.Gauge("avgpipe_serve_inflight",
			"requests accepted and not yet answered"),
		latency: cfg.Obs.Histogram("avgpipe_serve_latency_seconds",
			"per-request latency, enqueue to reply", obs.DefSecondsBuckets()),
		occupancy: cfg.Obs.Histogram("avgpipe_serve_batch_occupancy",
			"examples per executed batch", obs.LinearBuckets(1, 1, cfg.MaxBatch)),
	}
	for id := range cfg.Workers {
		s.idle = append(s.idle, id)
		s.batches = append(s.batches, make([]*request, 0, cfg.MaxBatch))
	}
	s.freed.L = &s.mu
	s.health.SetNotReady("no model installed")
	return s, nil
}

func firstEmbedding(m *nn.Sequential) (*nn.Embedding, bool) {
	for _, l := range m.Layers {
		switch v := l.(type) {
		case *nn.Embedding:
			return v, true
		case *nn.Sequential:
			if e, ok := firstEmbedding(v); ok {
				return e, true
			}
		}
	}
	return nil, false
}

// SeqLen returns the per-request token count the task expects.
func (s *Server) SeqLen() int { return s.seqLen }

// Vocab returns the input vocabulary size, or -1 when unknown.
func (s *Server) Vocab() int { return s.vocab }

// Health exposes the readiness state for probe wiring.
func (s *Server) Health() *obs.Health { return s.health }

// Registry exposes the metrics registry the server reports into.
func (s *Server) Registry() *obs.Registry { return s.cfg.Obs }

// Round returns the installed model version's training round, or -1
// before the first install.
func (s *Server) Round() int {
	if v := s.cur.Load(); v != nil {
		return v.round
	}
	return -1
}

// installParams builds an immutable model version from master weights —
// Workers private replicas, each compiled for eval-mode replay — and
// publishes it with one atomic store. Requests in flight keep the
// version their batch loaded; new batches see the new one.
func (s *Server) installParams(master []*nn.Param, round int, source string) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	per := make([]*replicaModel, s.cfg.Workers)
	for id := range per {
		m := s.cfg.Task.NewModel(1) // init seed irrelevant: weights overwritten
		ps := m.Params()
		if len(ps) != len(master) {
			return fmt.Errorf("serve: snapshot has %d tensors, model wants %d", len(master), len(ps))
		}
		for i, p := range ps {
			if !sameShape(p.W.Shape(), master[i].W.Shape()) {
				return fmt.Errorf("serve: tensor %d (%s): snapshot shape %v, model shape %v",
					i, p.Name, master[i].W.Shape(), p.W.Shape())
			}
			p.W.CopyFrom(master[i].W)
		}
		prog, err := nn.CompileStageInference(m, compiled.Options{})
		if err != nil {
			return fmt.Errorf("serve: compile: %w", err)
		}
		per[id] = &replicaModel{model: m, prog: prog,
			envs: make(map[int]*compiled.Env), xbuf: make(map[int]*tensor.Tensor)}
	}
	s.cur.Store(&modelVersion{round: round, source: source, replicas: per})
	s.swaps[source].Inc()
	s.roundG.Set(float64(round))
	s.health.SetReady()
	return nil
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Predict answers one request: tokens must be exactly SeqLen ids in
// [0, Vocab). It queues the request, then, while a replica is idle and
// the request is still queued, runs the oldest queued requests as a
// batch on the calling goroutine. It returns once the request has been
// answered (by its own batch or another caller's), the context fires,
// or the server reports an error.
func (s *Server) Predict(ctx context.Context, tokens []int) (*Result, error) {
	if len(tokens) != s.seqLen {
		s.rejected.Inc()
		return nil, fmt.Errorf("serve: want %d tokens, got %d", s.seqLen, len(tokens))
	}
	if s.vocab > 0 {
		for _, tok := range tokens {
			if tok < 0 || tok >= s.vocab {
				s.rejected.Inc()
				return nil, fmt.Errorf("serve: token %d out of vocab [0,%d)", tok, s.vocab)
			}
		}
	}
	if s.cur.Load() == nil {
		s.rejected.Inc()
		return nil, ErrNoModel
	}
	r := &request{
		tokens: tokens,
		start:  time.Now(),
		reply:  make(chan reply, 1),
		wake:   make(chan struct{}, 1),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Inc()
		return nil, ErrClosed
	}
	// Count r in before queueing it: once queued, another caller's
	// batch may answer it (and count it out).
	s.inflight.Add(1)
	s.queue = append(s.queue, r)
	for {
		for !r.taken && len(s.idle) > 0 {
			r.busy = true
			s.runOldest()
			r.busy = false
		}
		s.handoff()
		s.mu.Unlock()
		select {
		case rep := <-r.reply:
			return rep.res, rep.err
		case <-r.wake:
			s.mu.Lock()
		case <-ctx.Done():
			// Withdraw r if still queued; a taken r is answered unread.
			s.mu.Lock()
			if !r.taken {
				s.queue = slices.DeleteFunc(s.queue, func(q *request) bool { return q == r })
				s.inflight.Add(-1)
				s.rejected.Inc()
				s.handoff() // r may have held the only wake
			}
			s.mu.Unlock()
			return nil, ctx.Err()
		}
	}
}

// runOldest runs the oldest ≤ MaxBatch queued requests as one batch on
// an idle replica and the calling goroutine. Called with s.mu held, a
// replica idle and a request queued; returns with s.mu held.
func (s *Server) runOldest() {
	id := s.idle[len(s.idle)-1]
	s.idle = s.idle[:len(s.idle)-1]
	n := min(len(s.queue), s.cfg.MaxBatch)
	batch := append(s.batches[id], s.queue[:n]...)
	for _, r := range batch {
		r.taken = true
	}
	s.queue = slices.Delete(s.queue, 0, n)
	s.handoff()
	s.mu.Unlock()
	s.runBatch(id, batch)
	clear(batch)
	s.mu.Lock()
	s.batches[id] = batch[:0]
	s.idle = append(s.idle, id)
	if s.closed {
		s.freed.Signal()
	}
}

// handoff keeps s.mu's invariant, and runs before every release: while a
// replica is idle and a request is queued, the oldest queued caller not
// running a batch is woken to take over. A woken caller's request can
// only leave the queue under s.mu, whose holder then hands off again.
func (s *Server) handoff() {
	if len(s.idle) == 0 {
		return
	}
	for _, r := range s.queue {
		if !r.busy {
			select {
			case r.wake <- struct{}{}:
			default: // already woken
			}
			return
		}
	}
}

// runBatch executes one batch on replica id. The version pointer is
// loaded exactly once; every request in the batch is answered from it — the
// no-torn-reads half of the hot-swap contract.
func (s *Server) runBatch(id int, batch []*request) {
	v := s.cur.Load()
	if v == nil {
		for _, r := range batch {
			s.answer(r)
			r.reply <- reply{err: ErrNoModel}
		}
		return
	}
	wm := v.replicas[id]
	n := len(batch)
	env, x, err := wm.bind(n, s.seqLen)
	if err != nil {
		for _, r := range batch {
			s.answer(r)
			r.reply <- reply{err: err}
		}
		return
	}
	// Time-major input, the data package's layout: token for (position
	// p, example b) lands in row p*n+b.
	xd := x.Data()
	for b, r := range batch {
		for p, tok := range r.tokens {
			xd[p*n+b] = float32(tok)
		}
	}
	env.BindInput(x)
	env.Forward()
	out := env.Output()
	rows, cols := out.Dim(0), out.Dim(1)
	rowsPer := rows / n
	od := out.Data()
	for b, r := range batch {
		res := &Result{
			Predictions: make([]int, rowsPer),
			Logits:      make([][]float32, rowsPer),
			Round:       v.round,
			BatchSize:   n,
		}
		for j := 0; j < rowsPer; j++ {
			row := od[(j*n+b)*cols : (j*n+b+1)*cols]
			res.Logits[j] = append([]float32(nil), row...)
			res.Predictions[j] = argmax(row)
		}
		s.answer(r)
		r.reply <- reply{res: res}
	}
	env.ReleaseOutput()
	env.EndMicro()
	s.occupancy.Observe(float64(n))
}

// answer counts r as served — its latency, the in-flight gauge, the
// request total — just before its reply is sent, so a caller holding its
// reply always finds itself counted.
func (s *Server) answer(r *request) {
	s.latency.Observe(time.Since(r.start).Seconds())
	s.inflight.Add(-1)
	s.requests.Inc()
}

// bind returns the replica's Env and input buffer for a batch size,
// building them on first use. Both live in the version's replicaModel,
// so a hot swap naturally retires them with the old weights.
func (wm *replicaModel) bind(n, seqLen int) (*compiled.Env, *tensor.Tensor, error) {
	env, ok := wm.envs[n]
	if !ok {
		shape := []int{seqLen * n, 1}
		if err := wm.prog.CheckPlan(shape); err != nil {
			return nil, nil, fmt.Errorf("serve: plan batch %d: %w", n, err)
		}
		env = wm.prog.NewEnv(shape)
		wm.envs[n] = env
		wm.xbuf[n] = tensor.New(shape...)
	}
	return env, wm.xbuf[n], nil
}

func argmax(row []float32) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// Close stops accepting requests, runs the queued ones on the calling
// goroutine and waits for every replica to go idle: every request
// accepted before Close is answered. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for len(s.queue) > 0 || len(s.idle) < s.cfg.Workers {
		if len(s.queue) > 0 && len(s.idle) > 0 {
			s.runOldest()
		} else {
			s.freed.Wait()
		}
	}
	s.health.SetNotReady("closed")
}
