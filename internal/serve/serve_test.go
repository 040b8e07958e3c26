package serve

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"avgpipe/internal/core"
	"avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// snapFrame packs a model's parameters into a snapshot frame, the way
// SnapshotPublisher does.
func snapFrame(ps []*nn.Param, round int) *net.Frame {
	f := &net.Frame{Type: net.FrameSnapshot, Round: uint32(round), Meta: uint32(len(ps))}
	for _, p := range ps {
		f.Tensors = append(f.Tensors, p.W.Clone())
	}
	return f
}

// evalForward runs the interpreter's eval-mode forward over a batch —
// the reference the served outputs must match bit-exactly.
func evalForward(m *nn.Sequential, x *tensor.Tensor) *tensor.Tensor {
	return m.Forward(nn.NewContext(), x, false)
}

// singleX builds the (seqLen, 1) time-major input of one sequence.
func singleX(tokens []int) *tensor.Tensor {
	x := tensor.New(len(tokens), 1)
	for p, tok := range tokens {
		x.Set(float32(tok), p, 0)
	}
	return x
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Task == nil {
		cfg.Task = workload.TranslationTask()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// testTokens builds 32 deterministic distinct in-vocab sequences.
func testTokens(t *testing.T, s *Server, seed int64) [][]int {
	t.Helper()
	seqs := make([][]int, 32)
	for i := range seqs {
		toks := make([]int, s.SeqLen())
		for p := range toks {
			toks[p] = int(seed+int64(31*i+7*p)) % s.Vocab()
		}
		seqs[i] = toks
	}
	return seqs
}

func bitEqualSlices(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// flatLogits concatenates a result's logit rows for whole-response
// comparison.
func flatLogits(r *Result) []float32 {
	var out []float32
	for _, row := range r.Logits {
		out = append(out, row...)
	}
	return out
}

// refLogits extracts example 0's logits from a single-example
// interpreter forward, row per position.
func refLogits(y *tensor.Tensor) []float32 {
	return append([]float32(nil), y.Data()...)
}

// TestPredictMatchesInterpreterEval is the core correctness property:
// whatever batch a request lands in, its answer is bit-identical to the
// interpreter's eval-mode forward of that sequence alone. This is batch
// invariance (every kernel is row-independent) plus compiled/interpreter
// equivalence, asserted end to end through the batcher.
func TestPredictMatchesInterpreterEval(t *testing.T) {
	task := workload.TranslationTask()
	s := newTestServer(t, Config{Task: task, MaxBatch: 4, Workers: 2})
	model := task.NewModel(7)
	if err := s.InstallSnapshot(snapFrame(model.Params(), 3)); err != nil {
		t.Fatal(err)
	}
	seqs := testTokens(t, s, 11)
	want := make([][]float32, len(seqs))
	for i, toks := range seqs {
		want[i] = refLogits(evalForward(model, singleX(toks)))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(seqs))
	got := make([]*Result, len(seqs))
	for i := range seqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.Predict(context.Background(), seqs[i])
		}(i)
	}
	wg.Wait()
	occupied := false
	for i := range seqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got[i].Round != 3 {
			t.Fatalf("request %d: round %d, want 3", i, got[i].Round)
		}
		if got[i].BatchSize > 1 {
			occupied = true
		}
		if !bitEqualSlices(flatLogits(got[i]), want[i]) {
			t.Fatalf("request %d (batch size %d): logits differ from single-sequence interpreter eval",
				i, got[i].BatchSize)
		}
		if len(got[i].Predictions) != s.SeqLen() {
			t.Fatalf("request %d: %d predictions, want %d", i, len(got[i].Predictions), s.SeqLen())
		}
	}
	if !occupied {
		t.Log("note: no request shared a batch (timing); invariance still checked")
	}
	if c := s.Registry().Counter("avgpipe_serve_requests_total", "").Value(); int(c) != len(seqs) {
		t.Fatalf("requests_total = %v, want %d", c, len(seqs))
	}
	if n := s.latency.Count(); int(n) != len(seqs) {
		t.Fatalf("latency observations = %d, want %d", n, len(seqs))
	}
}

// TestRequestCountedBeforeReply: a request is counted in
// requests_total before its reply is sent, so a caller holding its reply
// always finds itself counted. runBatch answers one request whose reply
// channel is unbuffered, so the reply waits until the test receives it:
// the count must reach 1 first. Counting after the send would leave it
// at 0 for as long as the reply waits.
func TestRequestCountedBeforeReply(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 1, Workers: 1})
	if err := s.InstallSnapshot(snapFrame(workload.TranslationTask().NewModel(7).Params(), 1)); err != nil {
		t.Fatal(err)
	}
	total := s.Registry().Counter("avgpipe_serve_requests_total", "")
	r := &request{tokens: testTokens(t, s, 5)[0], start: time.Now(), reply: make(chan reply)}
	go s.runBatch(0, []*request{r})
	for deadline := time.Now().Add(5 * time.Second); total.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("requests_total %v while the reply waits to be received", total.Value())
		}
	}
	if rep := <-r.reply; rep.err != nil {
		t.Fatal(rep.err)
	}
}

// TestPerSequenceTask covers the MeanPoolTime output layout: one
// prediction row per request.
func TestPerSequenceTask(t *testing.T) {
	task := workload.ClassificationTask()
	s := newTestServer(t, Config{Task: task, MaxBatch: 4, Workers: 1})
	model := task.NewModel(5)
	if err := s.InstallSnapshot(snapFrame(model.Params(), 1)); err != nil {
		t.Fatal(err)
	}
	toks := testTokens(t, s, 3)[0]
	res, err := s.Predict(context.Background(), toks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 1 || len(res.Logits) != 1 || len(res.Logits[0]) != 2 {
		t.Fatalf("want 1 prediction row of 2 classes, got %d rows", len(res.Predictions))
	}
	if !bitEqualSlices(res.Logits[0], refLogits(evalForward(model, singleX(toks)))) {
		t.Fatal("classification logits differ from interpreter eval")
	}
}

// TestPredictValidation pins the rejection paths: wrong length,
// out-of-vocab token, and no installed model.
func TestPredictValidation(t *testing.T) {
	s := newTestServer(t, Config{Task: workload.TranslationTask()})
	ctx := context.Background()
	if _, err := s.Predict(ctx, make([]int, s.SeqLen()+1)); err == nil {
		t.Fatal("accepted wrong-length request")
	}
	bad := make([]int, s.SeqLen())
	bad[0] = s.Vocab()
	if _, err := s.Predict(ctx, bad); err == nil {
		t.Fatal("accepted out-of-vocab token")
	}
	if _, err := s.Predict(ctx, make([]int, s.SeqLen())); err != ErrNoModel {
		t.Fatalf("before install: want ErrNoModel, got %v", err)
	}
	if ready, _ := s.Health().Ready(); ready {
		t.Fatal("ready before any model installed")
	}
	model := workload.TranslationTask().NewModel(1)
	if err := s.InstallSnapshot(snapFrame(model.Params(), 1)); err != nil {
		t.Fatal(err)
	}
	if ready, _ := s.Health().Ready(); !ready {
		t.Fatal("not ready after install")
	}
	if _, err := s.Predict(ctx, make([]int, s.SeqLen())); err != nil {
		t.Fatalf("valid request after install: %v", err)
	}
}

// TestInstallSnapshotRejectsMalformed pins snapshot validation: wrong
// frame type, Meta/tensor-count mismatch, and wrong tensor shapes must
// all fail without installing, and a stale round must be a no-op.
func TestInstallSnapshotRejectsMalformed(t *testing.T) {
	task := workload.TranslationTask()
	s := newTestServer(t, Config{Task: task})
	model := task.NewModel(2)
	good := snapFrame(model.Params(), 10)
	if err := s.InstallSnapshot(good); err != nil {
		t.Fatal(err)
	}
	if s.Round() != 10 {
		t.Fatalf("round %d, want 10", s.Round())
	}
	wrongType := snapFrame(model.Params(), 11)
	wrongType.Type = net.FrameUpdate
	if err := s.InstallSnapshot(wrongType); err == nil {
		t.Fatal("accepted non-snapshot frame")
	}
	wrongMeta := snapFrame(model.Params(), 11)
	wrongMeta.Meta++
	if err := s.InstallSnapshot(wrongMeta); err == nil {
		t.Fatal("accepted Meta/tensor-count mismatch")
	}
	wrongShape := snapFrame(model.Params(), 11)
	wrongShape.Tensors[0] = tensor.New(1, 1)
	if err := s.InstallSnapshot(wrongShape); err == nil {
		t.Fatal("accepted wrong tensor shape")
	}
	stale := snapFrame(model.Params(), 10)
	if err := s.InstallSnapshot(stale); err != nil {
		t.Fatalf("stale snapshot should be a silent no-op, got %v", err)
	}
	if s.Round() != 10 {
		t.Fatalf("round moved to %d on rejected installs", s.Round())
	}
}

// TestCloseDrains is the zero-lost-requests half of the acceptance
// criterion: every request accepted before Close is answered, and
// requests arriving after Close fail fast with ErrClosed.
func TestCloseDrains(t *testing.T) {
	task := workload.TranslationTask()
	s, err := New(Config{Task: task, MaxBatch: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	model := task.NewModel(3)
	if err := s.InstallSnapshot(snapFrame(model.Params(), 1)); err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	results := make([]error, n)
	toks := make([]int, s.SeqLen())
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = s.Predict(context.Background(), toks)
		}(i)
	}
	// Let some requests get accepted, then close under load.
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()
	for i, err := range results {
		if err != nil && err != ErrClosed {
			t.Fatalf("request %d: lost with %v (want answered or ErrClosed)", i, err)
		}
	}
	if _, err := s.Predict(context.Background(), toks); err != ErrClosed {
		t.Fatalf("after Close: want ErrClosed, got %v", err)
	}
	s.Close() // idempotent
}

// TestWatchCheckpoints drives the pull path end to end: a trainer
// checkpoints, the watcher installs it, and the served outputs match
// the trainer's own reference model bit-exactly; a later checkpoint at
// a higher round is picked up automatically.
func TestWatchCheckpoints(t *testing.T) {
	task := workload.TranslationTask()
	dir := t.TempDir()
	tr, err := core.NewTrainer(core.TrainerConfig{
		Task: task, Pipelines: 2, Micro: 2, StageCount: 2, Seed: 5, ClipNorm: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for r := 0; r < 2; r++ {
		tr.Step()
	}
	if err := tr.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{Task: task, MaxBatch: 2, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		s.WatchCheckpoints(ctx, dir, 5*time.Millisecond)
	}()
	waitRound := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.Round() != want {
			if time.Now().After(deadline) {
				t.Fatalf("round %d never installed (at %d)", want, s.Round())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitRound(2)

	// Served output == the checkpointed reference model, bit-exact.
	ref := task.NewModel(1)
	if _, err := core.LoadReference(dir, ref.Params()); err != nil {
		t.Fatal(err)
	}
	toks := testTokens(t, s, 9)[0]
	res, err := s.Predict(context.Background(), toks)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqualSlices(flatLogits(res), refLogits(evalForward(ref, singleX(toks)))) {
		t.Fatal("served logits differ from checkpointed reference model")
	}

	// A newer checkpoint in the same directory hot-swaps in.
	tr.Step()
	if err := tr.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	waitRound(3)
	cancel()
	<-watchDone
}

// TestSnapshotPush drives the push path over the in-process transport:
// train publishes its reference snapshot, the server installs it, and
// serving matches the trainer's reference bit-exactly.
func TestSnapshotPush(t *testing.T) {
	task := workload.TranslationTask()
	tr, err := core.NewTrainer(core.TrainerConfig{
		Task: task, Pipelines: 2, Micro: 2, StageCount: 2, Seed: 5, ClipNorm: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Step()

	tp := net.NewInProc(4)
	l, err := tp.Listen("serve")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := newTestServer(t, Config{Task: task, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeSnapshots(ctx, l)

	pub := NewSnapshotPublisher(tp, "serve")
	defer pub.Close()
	ref := tr.ReferenceSnapshot()
	if err := pub.Publish(ctx, tr.Round(), ref); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Round() != tr.Round() {
		if time.Now().After(deadline) {
			t.Fatalf("pushed round %d never installed", tr.Round())
		}
		time.Sleep(time.Millisecond)
	}
	refModel := task.NewModel(1)
	for i, p := range refModel.Params() {
		p.W.CopyFrom(ref[i].W)
	}
	toks := testTokens(t, s, 17)[0]
	res, err := s.Predict(context.Background(), toks)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqualSlices(flatLogits(res), refLogits(evalForward(refModel, singleX(toks)))) {
		t.Fatal("served logits differ from pushed reference snapshot")
	}
}

// settle retries cond for up to a second, so goroutines that are
// winding down get their chance to exit.
func settle(cond func() bool) bool {
	for range 1000 {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// TestNoServerGoroutines pins that batching runs on the callers'
// goroutines: New starts none, and Close leaves none behind.
func TestNoServerGoroutines(t *testing.T) {
	task := workload.TranslationTask()
	base := runtime.NumGoroutine()
	s, err := New(Config{Task: task, MaxBatch: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !settle(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("New: %d goroutines, %d before", runtime.NumGoroutine(), base)
	}
	if err := s.InstallSnapshot(snapFrame(task.NewModel(3).Params(), 1)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, toks := range testTokens(t, s, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Predict(context.Background(), toks); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s.Close()
	if !settle(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("Close: %d goroutines, %d before New", runtime.NumGoroutine(), base)
	}
}

// takeReplica takes a replica out of the idle set, as a running batch
// does, so requests queue behind it, and returns its id.
func takeReplica(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.idle[len(s.idle)-1]
	s.idle = s.idle[:len(s.idle)-1]
	return id
}

// returnReplica puts replica id back and wakes a queued caller, as the
// end of a running batch does.
func returnReplica(s *Server, id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idle = append(s.idle, id)
	s.handoff()
}

func queued(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// TestBusyReplicaBatchesQueue: a lone request runs at once in a batch
// of one, while requests that arrive when every replica is busy pile up
// and the replica that comes free takes them all as one batch.
func TestBusyReplicaBatchesQueue(t *testing.T) {
	task := workload.TranslationTask()
	s := newTestServer(t, Config{Task: task, MaxBatch: 8, Workers: 1})
	if err := s.InstallSnapshot(snapFrame(task.NewModel(3).Params(), 1)); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Predict(context.Background(), testTokens(t, s, 4)[0]); err != nil || res.BatchSize != 1 {
		t.Fatalf("lone request: %v, %+v; want a batch of 1", err, res)
	}
	id := takeReplica(s)
	const n = 5
	seqs := testTokens(t, s, 4)[:n]
	got := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, toks := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Predict(context.Background(), toks)
		}()
	}
	if !settle(func() bool { return queued(s) == n }) {
		t.Fatalf("%d requests queued, want %d", queued(s), n)
	}
	returnReplica(s, id)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got[i].BatchSize != n {
			t.Fatalf("request %d answered in a batch of %d, want %d", i, got[i].BatchSize, n)
		}
	}
	if c := s.occupancy.Count(); c != 2 {
		t.Fatalf("%d batches ran, want 2", c)
	}
}

// TestCancelWhileQueued: a caller whose context fires while its request
// is queued withdraws it, gets ctx.Err(), and is counted out of the
// in-flight gauge and into the rejected total.
func TestCancelWhileQueued(t *testing.T) {
	task := workload.TranslationTask()
	s := newTestServer(t, Config{Task: task, MaxBatch: 8, Workers: 1})
	if err := s.InstallSnapshot(snapFrame(task.NewModel(3).Params(), 1)); err != nil {
		t.Fatal(err)
	}
	toks := testTokens(t, s, 4)[0]
	id := takeReplica(s)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Predict(ctx, toks)
		errc <- err
	}()
	if !settle(func() bool { return queued(s) == 1 }) {
		t.Fatal("request never queued")
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled while queued: got %v, want %v", err, context.Canceled)
	}
	if n := queued(s); n != 0 {
		t.Fatalf("%d requests still queued", n)
	}
	if v := s.Registry().Gauge("avgpipe_serve_inflight", "").Value(); v != 0 {
		t.Fatalf("in-flight gauge reads %v", v)
	}
	if v := s.Registry().Counter("avgpipe_serve_rejected_total", "").Value(); v != 1 {
		t.Fatalf("rejected_total = %v, want 1", v)
	}
	returnReplica(s, id)
	if _, err := s.Predict(context.Background(), toks); err != nil {
		t.Fatalf("after the withdrawal: %v", err)
	}
}

// TestCancelPassesWake: a caller woken to run a batch whose context
// fires first must pass the wake on as it withdraws, or the request
// queued behind it strands beside an idle replica. The woken caller
// sees its wake and its cancellation at once and picks either, so the
// scenario runs 20 times.
func TestCancelPassesWake(t *testing.T) {
	task := workload.TranslationTask()
	s := newTestServer(t, Config{Task: task, MaxBatch: 8, Workers: 1})
	if err := s.InstallSnapshot(snapFrame(task.NewModel(3).Params(), 1)); err != nil {
		t.Fatal(err)
	}
	toks := testTokens(t, s, 4)[0]
	for range 20 {
		id := takeReplica(s)
		ctx, cancel := context.WithCancel(context.Background())
		first, second := make(chan error, 1), make(chan error, 1)
		go func() { _, err := s.Predict(ctx, toks); first <- err }()
		if !settle(func() bool { return queued(s) == 1 }) {
			t.Fatal("first request never queued")
		}
		go func() { _, err := s.Predict(context.Background(), toks); second <- err }()
		if !settle(func() bool { return queued(s) == 2 }) {
			t.Fatal("second request never queued")
		}
		s.mu.Lock()
		s.idle = append(s.idle, id)
		cancel()
		s.handoff() // wakes the first caller
		s.mu.Unlock()
		if err := <-first; err != nil && err != context.Canceled {
			t.Fatal(err)
		}
		select {
		case err := <-second:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("request stranded behind a withdrawn caller's wake")
		}
	}
}

// TestInflightGaugeNeverNegative samples avgpipe_serve_inflight while
// 32 callers contend for one replica running batches of one. A request
// must be counted in before it is queued: once queued, another caller's
// batch may answer it (and count it out) before its own caller counts
// it in, and the gauge would read −1.
func TestInflightGaugeNeverNegative(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 1, Workers: 1})
	if err := s.InstallSnapshot(snapFrame(workload.TranslationTask().NewModel(7).Params(), 1)); err != nil {
		t.Fatal(err)
	}
	gauge := s.Registry().Gauge("avgpipe_serve_inflight", "")
	seqs := testTokens(t, s, 3)
	done := make(chan struct{})
	low := make(chan float64, 1)
	go func() {
		lowest := 0.0
		for {
			select {
			case <-done:
				low <- lowest
				return
			default:
				lowest = min(lowest, gauge.Value())
			}
		}
	}()
	var wg sync.WaitGroup
	for _, toks := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 40 {
				if _, err := s.Predict(context.Background(), toks); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	if v := <-low; v < 0 {
		t.Fatalf("in-flight gauge read %v", v)
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("in-flight gauge reads %v with every request answered", v)
	}
}
