package avgpipe

import (
	"context"
	"errors"
	gonet "net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	netx "avgpipe/internal/net"
)

// TestPublicAPITrainQuickstart exercises the training path end to end
// through the public facade: model building blocks, Task, Trainer.
func TestPublicAPITrainQuickstart(t *testing.T) {
	task := TranslationTask()
	tr, err := NewTrainer(TrainerConfig{
		Task: task, Pipelines: 2, Micro: 2, StageCount: 2, Seed: 1, ClipNorm: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	loss0, _ := tr.Eval()
	for i := 0; i < 40; i++ {
		tr.Step()
	}
	loss1, _ := tr.Eval()
	if loss1 >= loss0 {
		t.Fatalf("public API trainer not learning: %v -> %v", loss0, loss1)
	}
}

// TestPublicAPICustomModel builds a custom model from exported layers and
// runs a manual forward/backward/step cycle.
func TestPublicAPICustomModel(t *testing.T) {
	g := NewRNG(1)
	m := NewSequential(
		NewEmbedding(g, 8, 16),
		NewLSTM(g, 16, 16, 4),
		ReLU(),
		NewLinear(g, 16, 8),
	)
	x := NewTensor(8, 1) // T=4, B=2 tokens (all zero => token 0)
	ctx := NewContext()
	logits := m.Forward(ctx, x, true)
	loss, dlogits := CrossEntropy(logits, []int{1, 2, 3, 4, 5, 6, 7, 0})
	if loss <= 0 {
		t.Fatal("expected positive loss")
	}
	m.Backward(ctx, dlogits)
	opt := NewAdam(1e-3)
	opt.Step(m.Params())
	if Accuracy(logits, []int{1, 2, 3, 4, 5, 6, 7, 0}) < 0 {
		t.Fatal("accuracy broken")
	}
}

// TestPublicAPISimulation exercises simulation, partitioning, schedules,
// and the OOM path through the facade.
func TestPublicAPISimulation(t *testing.T) {
	w := BERT()
	c := w.Cluster().SetSatSamples(w.SatSamples)
	stages := Partition(w, c.Size(), 0)
	r, err := Simulate(SimConfig{
		Workload: w, Cluster: c, Stages: stages,
		Micro: 8, Pipelines: 1, Schedule: OneFOneB(c.Size(), 8, 2), Batches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.BatchTime <= 0 || r.PeakMemory() <= 0 {
		t.Fatal("degenerate simulation result")
	}
	// PipeDream with full-batch units must OOM on BERT (§7.1.1).
	pd, err := Simulate(SimConfig{
		Workload: w, Cluster: c, Stages: stages,
		Micro: 1, Pipelines: 1, Schedule: PipeDream(c.Size(), 1, 4), Batches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pd.OOM == nil || !strings.Contains(pd.OOM.Error(), "out of memory") {
		t.Fatalf("expected PipeDream OOM on BERT, got %v", pd.OOM)
	}
	dp := SimulateDataParallel(w, c)
	if dp.BatchTime <= r.BatchTime {
		t.Fatal("data parallelism should lose to pipelining on 1 Gbps Ethernet")
	}
}

// TestPublicAPITuning exercises the tuning path through the facade.
func TestPublicAPITuning(t *testing.T) {
	w := AWD()
	c := w.Cluster().SetSatSamples(w.SatSamples)
	stages := Partition(w, c.Size(), 0)
	tuned, prof, err := Tune(w, c, stages, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.M <= 0 || tuned.N <= 0 || prof == nil {
		t.Fatal("degenerate tuning result")
	}
	pred, err := Predict(prof, tuned.M, tuned.N)
	if err != nil {
		t.Fatal(err)
	}
	if pred.BatchTime <= 0 {
		t.Fatal("degenerate prediction")
	}
	adv, res, err := DecideAdvance(AFPConfig{
		Workload: w, Cluster: c, Stages: stages,
		Micro: tuned.M, Pipes: tuned.N, Batches: 2, RefModel: tuned.N > 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv) != c.Size() || res == nil {
		t.Fatal("degenerate advance decision")
	}
	if !LegalAdvance(c.Size(), tuned.M, adv) {
		t.Fatal("decided advance must be legal")
	}
}

// TestPublicAPISchedulersAndCheckpoint exercises the LR schedulers and
// the checkpoint roundtrip through the facade.
func TestPublicAPISchedulersAndCheckpoint(t *testing.T) {
	sched := Warmup{Base: 1, Steps: 4, After: CosineDecay{Base: 1, Min: 0.1, Steps: 10}}
	opt := NewAdam(999)
	ApplyLR(opt, sched, 0)
	if opt.LR != 0.25 {
		t.Fatalf("warmup step 0 LR = %v", opt.LR)
	}
	g := NewRNG(1)
	m := NewSequential(NewLinear(g, 3, 3))
	var buf strings.Builder
	if err := SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	m2 := NewSequential(NewLinear(NewRNG(2), 3, 3))
	if err := LoadParams(strings.NewReader(buf.String()), m2.Params()); err != nil {
		t.Fatal(err)
	}
	if m.Params()[0].W.At(0, 0) != m2.Params()[0].W.At(0, 0) {
		t.Fatal("checkpoint roundtrip failed")
	}
}

// TestPublicAPIChimera exercises the bidirectional simulator through the
// facade.
func TestPublicAPIChimera(t *testing.T) {
	w := AWD()
	c := w.Cluster().SetSatSamples(w.SatSamples)
	stages := Partition(w, c.Size(), 0)
	r, err := SimulateChimera(ChimeraConfig{Base: SimConfig{
		Workload: w, Cluster: c, Stages: stages, Micro: 10, Pipelines: 1, Batches: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.BatchTime <= 0 {
		t.Fatal("degenerate chimera result")
	}
}

// TestPublicAPIBiLSTM exercises the bidirectional encoder layer.
func TestPublicAPIBiLSTM(t *testing.T) {
	g := NewRNG(1)
	m := NewSequential(
		NewEmbedding(g, 6, 8),
		NewBiLSTM(g, 8, 4, 3),
		Reverse(3),
		NewLinear(g, 8, 6),
	)
	ctx := NewContext()
	y := m.Forward(ctx, NewTensor(6, 1), true)
	if y.Dim(1) != 6 {
		t.Fatalf("output shape %v", y.Shape())
	}
	_, dy := CrossEntropy(y, []int{0, 1, 2, 3, 4, 5})
	m.Backward(ctx, dy)
}

// TestPublicAPIElasticAverager drives the Averager directly with a custom
// loop, as a downstream user with their own training code would.
func TestPublicAPIElasticAverager(t *testing.T) {
	g := NewRNG(3)
	model := NewSequential(NewLinear(g, 4, 2))
	avg := NewAverager(2, model.Params())
	defer avg.Close()
	replicas := []*Sequential{
		NewSequential(NewLinear(g, 4, 2)),
		NewSequential(NewLinear(g, 4, 2)),
	}
	for round := 0; round < 3; round++ {
		for p, r := range replicas {
			// Fake a local update.
			r.Params()[0].W.Data()[0] += float32(p + 1)
			if err := avg.SubmitContext(context.Background(), p, round, r.Params()); err != nil {
				t.Fatal(err)
			}
		}
		if err := avg.DrainContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		for p, r := range replicas {
			avg.Dilute(p, r.Params())
		}
	}
	ref := avg.Reference()
	if len(ref) != 2 {
		t.Fatal("reference parameter count")
	}
}

// dialPair forms both replicas of a 2-replica loopback job concurrently
// through DialMesh; cfg supplies everything but identity and addresses.
// The two ports are reserved by binding and releasing them, leaving the
// usual local-only reuse race before DialMesh binds them again.
func dialPair(t *testing.T, cfg MeshConfig) (meshes [2]*Mesh, addrs [2]string) {
	t.Helper()
	var lns [2]gonet.Listener
	for i := range lns {
		ln, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	lns[0].Close()
	lns[1].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs [2]error
	var wg sync.WaitGroup
	for p := range meshes {
		c := cfg
		c.Self, c.Listen, c.Peers = p, addrs[p], map[int]string{1 - p: addrs[1-p]}
		c.Registry = NewMetricsRegistry()
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			meshes[p], errs[p] = DialMesh(ctx, c)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("replica %d: %v", p, err)
		}
		t.Cleanup(meshes[p].Close)
	}
	return meshes, addrs
}

// TestDialMesh forms 2-replica loopback jobs through the one facade
// dialer — plain on a ring, self-healing on the full mesh, and a
// restarted replica re-entering with Rejoin — and checks the two
// configurations it refuses.
func TestDialMesh(t *testing.T) {
	ring, _ := dialPair(t, MeshConfig{Topology: RingTopology{}})
	for p, m := range ring {
		if _, ok := m.ClockOffset(1 - p); m.Topology().Name() != "ring" || !ok {
			t.Errorf("replica %d formed %s, clock synced %v; want ring, synced", p, m.Topology().Name(), ok)
		}
	}

	// Replica 1 of a self-healing job dies and restarts with Rejoin. Its
	// formation can only finish if the survivor re-dials it and admits
	// its fresh session — both self-heal behaviours. The survivor's sends
	// are what notice the dead link.
	healing, addrs := dialPair(t, MeshConfig{SelfHeal: true})
	healing[1].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var rejoined *Mesh
	done := make(chan error, 1)
	go func() {
		for {
			m, err := DialMesh(ctx, MeshConfig{
				Self: 1, Listen: addrs[1], Peers: map[int]string{0: addrs[0]},
				Registry: NewMetricsRegistry(), SelfHeal: true, Rejoin: true,
			})
			// A new bind of the dead replica's port can briefly fail
			// while the survivor is redialling it; retry until it binds.
			if !errors.Is(err, syscall.EADDRINUSE) || ctx.Err() != nil {
				rejoined = m
				done <- err
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	for formed := false; !formed; {
		_ = healing[0].Send(ctx, 1, netx.ClockPingFrame(0, 0))
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("restarted replica: %v", err)
			}
			formed = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	defer rejoined.Close()
	// Rejoin skips the formation-time sync: the peers of a real rejoin
	// are mid-training and cannot answer a quiescent ping.
	if offs := rejoined.ClockOffsets(); len(offs) != 0 {
		t.Errorf("rejoining replica measured clock offsets %v at formation", offs)
	}

	for _, tc := range []struct {
		cfg  MeshConfig
		want string
	}{
		{MeshConfig{Topology: RingTopology{}, SelfHeal: true}, "self-heal re-dials the full mesh only"},
		{MeshConfig{Rejoin: true}, "rejoin needs self-heal"},
	} {
		tc.cfg.Listen, tc.cfg.Peers = "127.0.0.1:0", map[int]string{1: "127.0.0.1:1"}
		if m, err := DialMesh(ctx, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: got mesh %v, error %v; want an error containing %q", tc.cfg, m, err, tc.want)
		}
	}
}
