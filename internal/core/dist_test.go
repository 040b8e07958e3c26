package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"avgpipe/internal/fault"
	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// formTestMeshes forms an n-replica job inside one test process under
// topo: every "replica" gets its own listener and mesh, exactly as n OS
// processes would. Over TCP each replica also gets its own transport
// and binds a kernel-chosen loopback port; in-process replicas share
// one InProc transport.
func formTestMeshes(t *testing.T, tcp bool, topo netx.Topology, n int) []*netx.Mesh {
	t.Helper()
	inproc := netx.NewInProc(0)
	trs := make([]netx.Transport, n)
	lns := make([]netx.Listener, n)
	for i := range lns {
		var tr netx.Transport = inproc
		addr := fmt.Sprintf("replica-%d", i)
		if tcp {
			tr, addr = netx.NewTCP(obs.NewRegistry()), "127.0.0.1:0"
		}
		ln, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		trs[i], lns[i] = tr, ln
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	meshes, err := netx.FormJob(ctx, trs, lns, topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, m := range meshes {
			m.Close()
		}
	})
	return meshes
}

// singleProcessLosses trains the seeded n-pipeline translation job in
// one process for the given rounds and returns every round's
// per-pipeline losses from its step log: [round][pipeline].
func singleProcessLosses(t *testing.T, n, rounds int, seed int64) [][]float64 {
	t.Helper()
	var log bytes.Buffer
	single, err := NewTrainer(TrainerConfig{
		Task: workload.TranslationTask(), Pipelines: n, Micro: 2, StageCount: 2,
		Seed: seed, ClipNorm: 5, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	single.SetStepLog(&log)
	for r := 0; r < rounds; r++ {
		single.Step()
	}
	single.Close()
	var want [][]float64
	for dec := json.NewDecoder(&log); dec.More(); {
		var rec StepRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Losses) != n {
			t.Fatalf("round %d: want %d per-pipeline losses, got %v", rec.Round, n, rec.Losses)
		}
		want = append(want, rec.Losses)
	}
	if len(want) != rounds {
		t.Fatalf("want %d logged rounds, got %d", rounds, len(want))
	}
	return want
}

// requireDistMatches trains the same job as one dist-mode trainer per
// mesh, concurrently, and requires every replica's per-round local loss
// to be bit-identical to want[round][replica].
func requireDistMatches(t *testing.T, meshes []*netx.Mesh, want [][]float64, seed int64) {
	t.Helper()
	n := len(meshes)
	got := make([][]float64, n) // [replica][round]
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := range meshes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tr, err := NewTrainer(TrainerConfig{
				Task: workload.TranslationTask(), Pipelines: n, Micro: 2, StageCount: 2,
				Seed: seed, ClipNorm: 5, Obs: obs.NewRegistry(),
				Dist: &DistConfig{ReplicaID: p, Mesh: meshes[p]},
			})
			if err != nil {
				errs[p] = err
				return
			}
			defer tr.Close()
			for r := range want {
				loss, err := tr.StepContext(context.Background())
				if err != nil {
					errs[p] = fmt.Errorf("round %d: %w", r, err)
					return
				}
				got[p] = append(got[p], loss)
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("replica %d: %v", p, err)
		}
	}
	for p := range meshes {
		for r, w := range want {
			if g := got[p][r]; math.Float64bits(w[p]) != math.Float64bits(g) {
				t.Errorf("replica %d round %d: single-process loss %.17g (bits %016x), "+
					"%s-fabric loss %.17g (bits %016x)", p, r, w[p], math.Float64bits(w[p]),
					meshes[p].Topology().Name(), g, math.Float64bits(g))
			}
		}
	}
}

// TestDistBitwiseDeterminism is the end-to-end determinism gate for the
// wire transport: the same seed trained single-process and as a 2-
// replica TCP-loopback job must produce bit-identical per-round local
// losses, because every process applies the same deterministic
// reduction to its own reference copy and the codec moves float32 bits
// exactly.
func TestDistBitwiseDeterminism(t *testing.T) {
	const n, rounds, seed = 2, 4, 11
	requireDistMatches(t, formTestMeshes(t, true, netx.FullMesh{}, n),
		singleProcessLosses(t, n, rounds, seed), seed)
}

// TestDistConcurrentMembership exercises concurrent Submit, Detach, and
// Rejoin over a live TCP mesh under the race detector: three replicas
// submit rounds while one keeps crashing out and rejoining, with a
// round deadline absorbing the updates that go missing. The test's
// assertion is clean convergence — every averager closes every round
// and shuts down without a deadlock or a race.
func TestDistConcurrentMembership(t *testing.T) {
	const (
		n      = 3
		rounds = 12
	)
	task := workload.TranslationTask()
	meshes := formTestMeshes(t, true, netx.FullMesh{}, n)

	avgs := make([]*Averager, n)
	params := make([][]*nn.Param, n)
	for p := 0; p < n; p++ {
		m := task.NewModel(3)
		params[p] = m.Params()
		avgs[p] = NewAveragerObs(n, m.Params(), obs.NewRegistry())
		avgs[p].SetFaults(mustInjector(t, fault.Config{Seed: 7, MsgDropProb: 0.2}))
		avgs[p].AttachMesh(meshes[p])
		avgs[p].SetRoundDeadline(30 * time.Millisecond)
	}

	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			a := avgs[p]
			for r := 0; r < rounds; r++ {
				// Replica 2 flaps its membership while the others submit.
				if p == 2 && r%4 == 1 {
					a.Detach(p)
				}
				if p == 2 && r%4 == 3 {
					a.Rejoin(p, params[p])
				}
				if a.Live(p) {
					// Nudge the weights so every round carries a real delta.
					params[p][0].W.AxpyInPlace(0.001, tensor.Ones(params[p][0].W.Shape()...))
					if err := a.SubmitContext(context.Background(), p, r, params[p]); err != nil {
						t.Errorf("replica %d round %d: %v", p, r, err)
						return
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := a.WaitRound(ctx, r)
				cancel()
				if err != nil {
					t.Errorf("replica %d: round %d never closed: %v", p, r, err)
					return
				}
				a.Dilute(p, params[p])
			}
		}(p)
	}
	wg.Wait()
	for p := 0; p < n; p++ {
		avgs[p].Close()
	}
}

func mustInjector(t *testing.T, cfg fault.Config) *fault.Injector {
	t.Helper()
	in, err := fault.New(cfg, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return in
}
