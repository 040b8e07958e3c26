// Package serve is the inference tier: it puts the elastic averager's
// reference model — the statistically meaningful copy the paper
// evaluates — in front of traffic. A Server owns a dynamic batcher
// (requests queue into a batch that flushes on a size cap or a
// max-linger deadline) feeding worker goroutines that replay the
// compiled eval-mode op graph (nn.CompileStageInference), and supports
// zero-downtime hot-swap of model snapshots from two sources: polling a
// checkpoint directory's commit marker (WatchCheckpoints) and receiving
// FrameSnapshot pushes over the internal/net codec from a live training
// job (ServeSnapshots / SnapshotPublisher).
//
// Swap correctness contract: a model version is immutable once
// installed, a worker loads the current version exactly once per batch,
// and every request in that batch is answered from that one version —
// a swap never tears a response across versions. Close drains: every
// request accepted before Close is answered.
package serve

import (
	"context"
	"errors"
	"fmt"
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
	// MaxBatch is the batch-size flush threshold (default 8).
	MaxBatch int
	// MaxLinger is how long the first queued request may wait for
	// companions before the batch flushes anyway (default 2ms). Smaller
	// favors latency, larger favors occupancy/throughput — this is the
	// one knob.
	MaxLinger time.Duration
	// Workers is the number of executor goroutines, each with its own
	// model replica and compiled Env pool (default 2).
	Workers int
	// QueueDepth bounds the accepted-but-unbatched request queue;
	// Predict blocks (context-cancellably) when it is full
	// (default 4*MaxBatch).
	QueueDepth int
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
	resp   chan *Result // cap 1: the worker never blocks replying
	errc   chan error   // cap 1
}

// workerModel is one worker's private copy of a model version: its own
// parameter tensors, its own compiled program, and a pool of Envs keyed
// by batch size. Nothing here is shared across workers, so forward
// replay needs no locks.
type workerModel struct {
	model *nn.Sequential
	prog  *compiled.Program
	envs  map[int]*compiled.Env
	xbuf  map[int]*tensor.Tensor
}

// modelVersion is an immutable installed snapshot. Workers load the
// pointer once per batch; installs publish a fully built replacement
// with a single atomic store.
type modelVersion struct {
	round     int
	source    string // "checkpoint" | "snapshot"
	perWorker []*workerModel
}

// Server is the batched inference server. Create with New, install a
// model (InstallCheckpoint / InstallSnapshot / a watcher), then call
// Predict from any number of goroutines.
type Server struct {
	cfg    Config
	seqLen int
	vocab  int // -1 when the model has no leading Embedding (no range check)

	cur     atomic.Pointer[modelVersion]
	swapMu  sync.Mutex // serializes installs (watch + push may race)
	reqCh   chan *request
	batchCh chan []*request
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	health *obs.Health

	requests  *obs.Counter
	rejected  *obs.Counter
	swaps     map[string]*obs.Counter
	roundG    *obs.Gauge
	inflight  *obs.Gauge
	latency   *obs.Histogram
	occupancy *obs.Histogram
}

// New builds a Server and starts its batcher and workers. No model is
// installed yet: Predict fails with ErrNoModel and /readyz reports 503
// until the first install.
func New(cfg Config) (*Server, error) {
	if cfg.Task == nil {
		return nil, errors.New("serve: Config.Task is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxLinger <= 0 {
		cfg.MaxLinger = 2 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxBatch
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
		cfg:     cfg,
		seqLen:  seqLen,
		vocab:   vocab,
		reqCh:   make(chan *request, cfg.QueueDepth),
		batchCh: make(chan []*request, cfg.Workers),
		health:  obs.NewHealth(),

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
	s.health.SetNotReady("no model installed")
	s.wg.Add(1 + cfg.Workers)
	go s.dispatch()
	for w := 0; w < cfg.Workers; w++ {
		go s.worker(w)
	}
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
// one private replica per worker, each compiled for eval-mode replay —
// and publishes it with one atomic store. Requests in flight keep the
// version their batch loaded; new batches see the new one.
func (s *Server) installParams(master []*nn.Param, round int, source string) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	per := make([]*workerModel, s.cfg.Workers)
	for w := range per {
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
		per[w] = &workerModel{model: m, prog: prog,
			envs: make(map[int]*compiled.Env), xbuf: make(map[int]*tensor.Tensor)}
	}
	s.cur.Store(&modelVersion{round: round, source: source, perWorker: per})
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
// [0, Vocab). It blocks until the dynamic batcher flushes the batch the
// request landed in (at most MaxLinger plus execution), the context
// fires, or the server reports an error.
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
		resp:   make(chan *Result, 1),
		errc:   make(chan error, 1),
	}
	// The RLock spans the send so Close cannot close reqCh midway; the
	// dispatcher keeps draining until the channel closes, so a sender
	// blocked on backpressure always makes progress and releases it.
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		s.rejected.Inc()
		return nil, ErrClosed
	}
	// Count the request in before the send: once it is sent, a worker
	// may answer it (and count it out) before this goroutine runs again.
	s.inflight.Add(1)
	select {
	case s.reqCh <- r:
		s.closeMu.RUnlock()
	case <-ctx.Done():
		s.closeMu.RUnlock()
		s.inflight.Add(-1)
		s.rejected.Inc()
		return nil, ctx.Err()
	}
	// Accepted: the reply always arrives (Close drains), so a caller
	// abandoning via ctx only abandons the wait, never the work.
	select {
	case res := <-r.resp:
		return res, nil
	case err := <-r.errc:
		return nil, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dispatch is the dynamic batcher: it accumulates requests and flushes
// when the batch hits MaxBatch or the oldest queued request has
// lingered MaxLinger.
func (s *Server) dispatch() {
	defer s.wg.Done()
	defer close(s.batchCh)
	var (
		pending []*request
		timer   = time.NewTimer(time.Hour)
		timerC  <-chan time.Time
	)
	if !timer.Stop() {
		<-timer.C
	}
	flush := func() {
		if timerC != nil {
			if !timer.Stop() {
				<-timer.C
			}
			timerC = nil
		}
		if len(pending) > 0 {
			s.batchCh <- pending
			pending = nil
		}
	}
	for {
		select {
		case r, ok := <-s.reqCh:
			if !ok {
				flush() // Close: hand the tail to the workers
				return
			}
			pending = append(pending, r)
			if len(pending) == 1 {
				timer.Reset(s.cfg.MaxLinger)
				timerC = timer.C
			}
			if len(pending) >= s.cfg.MaxBatch {
				flush()
			}
		case <-timerC:
			timerC = nil
			if len(pending) > 0 {
				s.batchCh <- pending
				pending = nil
			}
		}
	}
}

func (s *Server) worker(id int) {
	defer s.wg.Done()
	for batch := range s.batchCh {
		s.runBatch(id, batch)
	}
}

// runBatch executes one dynamic batch. The version pointer is loaded
// exactly once; every request in the batch is answered from it — the
// no-torn-reads half of the hot-swap contract.
func (s *Server) runBatch(id int, batch []*request) {
	v := s.cur.Load()
	if v == nil {
		for _, r := range batch {
			s.answer(r)
			r.errc <- ErrNoModel
		}
		return
	}
	wm := v.perWorker[id]
	n := len(batch)
	env, x, err := wm.bind(n, s.seqLen)
	if err != nil {
		for _, r := range batch {
			s.answer(r)
			r.errc <- err
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
		r.resp <- res
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

// bind returns the worker's Env and input buffer for a batch size,
// building them on first use. Both live in the version's workerModel,
// so a hot swap naturally retires them with the old weights.
func (wm *workerModel) bind(n, seqLen int) (*compiled.Env, *tensor.Tensor, error) {
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

// Close stops accepting requests, waits for every accepted request to
// be answered (the batcher flushes its tail, the workers drain the
// batch queue), and releases the goroutines. Idempotent.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.reqCh)
	s.closeMu.Unlock()
	s.wg.Wait()
	s.health.SetNotReady("closed")
}
