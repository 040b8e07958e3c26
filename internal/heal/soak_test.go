package heal

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"avgpipe/internal/core"
	"avgpipe/internal/fault"
	netx "avgpipe/internal/net"
	"avgpipe/internal/obs"
	"avgpipe/internal/workload"
)

// The chaos soak drives the whole self-healing stack end to end: a
// 2-process TCP job under seeded message drops and stragglers has one
// replica killed hard (mesh torn down, all process state lost) and
// restarted on the same address. The survivor must keep training alone
// (supervisor auto-detach), the mesh must re-knit itself (reconnecting
// conns + session epochs), the restarted process must rejoin without
// operator input (reference reseed over the wire), and the recovered
// job must reach >=90% of fault-free throughput.

const soakRoundDeadline = 100 * time.Millisecond

type soakNode struct {
	id      int
	reg     *obs.Registry
	tp      netx.Transport
	mesh    *netx.Mesh
	trainer *core.Trainer
	sup     *Supervisor
}

// soakForm binds one TCP listener per replica on kernel-chosen ports
// and forms every replica's mesh concurrently on the given averaging
// topology (nil = the full mesh).
func soakForm(t *testing.T, topo netx.Topology, n int) (tps []netx.Transport, meshes []*netx.Mesh, addrs []string) {
	t.Helper()
	tps = make([]netx.Transport, n)
	lns := make([]netx.Listener, n)
	addrs = make([]string, n)
	for i := range lns {
		tps[i] = netx.NewTCP(obs.NewRegistry())
		ln, err := tps[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	meshes, err := netx.FormJob(ctx, tps, lns, topo)
	if err != nil {
		t.Fatal(err)
	}
	return tps, meshes, addrs
}

// soakUp builds one replica's runtime on a formed mesh: self-healing
// connections (when selfHeal), the trainer, and the heal supervisor.
func soakUp(t *testing.T, id int, reg *obs.Registry, tp netx.Transport, mesh *netx.Mesh,
	addrs []string, faults fault.Config, selfHeal bool) *soakNode {
	t.Helper()
	if selfHeal {
		peers := make(map[int]string)
		for j, a := range addrs {
			if j != id {
				peers[j] = a
			}
		}
		if err := mesh.EnableSelfHeal(netx.SelfHealConfig{
			Transport: tp, Peers: peers, Events: reg.Events(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	trainer, err := core.NewTrainer(core.TrainerConfig{
		Task: workload.TranslationTask(), Pipelines: len(addrs), Micro: 2, StageCount: 2,
		Seed: 7, ClipNorm: 5, Obs: reg, Faults: faults,
		RoundDeadline: soakRoundDeadline,
		Dist:          &core.DistConfig{ReplicaID: id, Mesh: mesh},
	})
	if err != nil {
		t.Fatal(err)
	}
	node := &soakNode{id: id, reg: reg, tp: tp, mesh: mesh, trainer: trainer}
	if selfHeal {
		node.sup = New(trainer.Averager(), reg.Events(), Config{
			Self: id, Interval: 10 * time.Millisecond,
			MinDeadline: 20 * time.Millisecond, MaxDeadline: 300 * time.Millisecond,
			Deadline: soakRoundDeadline, Registry: reg,
		})
		node.sup.Start()
	}
	return node
}

func (n *soakNode) steps(ctx context.Context, count int) error {
	for i := 0; i < count; i++ {
		if _, err := n.trainer.StepContext(ctx); err != nil {
			return fmt.Errorf("replica %d round %d: %w", n.id, n.trainer.Round(), err)
		}
	}
	return nil
}

// soakBaseline measures the fault-free round rate of a fresh job.
func soakBaseline(t *testing.T, topo netx.Topology, rounds int) float64 {
	t.Helper()
	tps, meshes, addrs := soakForm(t, topo, 2)
	nodes := make([]*soakNode, 2)
	for p := 0; p < 2; p++ {
		nodes[p] = soakUp(t, p, obs.NewRegistry(), tps[p], meshes[p], addrs, fault.Config{}, false)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	elapsed := make([]time.Duration, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if errs[p] = nodes[p].steps(ctx, 5); errs[p] != nil { // warmup
				return
			}
			start := time.Now()
			errs[p] = nodes[p].steps(ctx, rounds)
			elapsed[p] = time.Since(start)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
	}
	for _, n := range nodes {
		n.trainer.Close()
	}
	return float64(rounds) / elapsed[0].Seconds()
}

// runChaosRecovery kills replica 1 hard mid-run, restarts it on the
// same address, rejoins it, and returns the post-recovery round rate
// measured over measured rounds (0 when measured == 0).
func runChaosRecovery(t *testing.T, topo netx.Topology, faults fault.Config, preCrash, sync, measured int) float64 {
	t.Helper()
	tps, meshes, addrs := soakForm(t, topo, 2)
	n0 := soakUp(t, 0, obs.NewRegistry(), tps[0], meshes[0], addrs, faults, true)
	n1 := soakUp(t, 1, obs.NewRegistry(), tps[1], meshes[1], addrs, faults, true)
	defer n0.sup.Stop()
	defer n0.trainer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// The survivor trains continuously, whatever happens to its peer.
	stop := make(chan struct{})
	survErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				survErr <- nil
				return
			default:
			}
			if _, err := n0.trainer.StepContext(ctx); err != nil {
				survErr <- err
				return
			}
		}
	}()

	// Phase 1: healthy job.
	if err := n1.steps(ctx, preCrash); err != nil {
		t.Fatal(err)
	}

	// Phase 2: replica 1 dies hard — connections reset, listener gone,
	// all in-memory state (reference copy, round counter) lost. The
	// trainer is abandoned the way a dead process's heap is.
	n1.sup.Stop()
	n1.mesh.Close()

	// The survivor's supervisor must take the dead replica out of the
	// averaging set so rounds stop waiting for it.
	waitFor(t, "survivor detached the dead replica", func() bool {
		return n0.trainer.Averager().LiveReplicas() == 1
	})

	// Phase 3: replica 1 restarts from nothing on the same address. The
	// survivor's reconnector re-dials it; its own dial is admitted by
	// the survivor's reconnect accept loop as a fresh session (epoch 0).
	tp1 := netx.NewTCP(obs.NewRegistry())
	var ln1 netx.Listener
	waitFor(t, "rebinding the crashed replica's address", func() bool {
		var err error
		ln1, err = tp1.Listen(addrs[1])
		return err == nil
	})
	fctx, fcancel := context.WithTimeout(ctx, time.Minute)
	mesh1, err := netx.FormTopologyOn(fctx, tp1, ln1, topo, 1, map[int]string{0: addrs[0]})
	fcancel()
	if err != nil {
		t.Fatalf("re-forming mesh after restart: %v", err)
	}
	n1b := soakUp(t, 1, obs.NewRegistry(), tp1, mesh1, addrs, faults, true)
	defer n1b.sup.Stop()
	defer n1b.trainer.Close()
	join, err := n1b.trainer.RejoinMesh(ctx)
	if err != nil {
		t.Fatalf("rejoin after restart: %v", err)
	}
	if join <= 0 {
		t.Fatalf("rejoined at round %d, want past the pre-crash progress", join)
	}
	waitFor(t, "survivor re-admitted the replica", func() bool {
		return n0.trainer.Averager().LiveReplicas() == 2
	})

	// Phase 4: recovered steady state, measured after a sync window.
	if err := n1b.steps(ctx, sync); err != nil {
		t.Fatal(err)
	}
	var rate float64
	if measured > 0 {
		start := time.Now()
		if err := n1b.steps(ctx, measured); err != nil {
			t.Fatal(err)
		}
		rate = float64(measured) / time.Since(start).Seconds()
	}
	close(stop)
	if err := <-survErr; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	return rate
}

// TestSelfHealRejoinAfterHardRestart is the fast always-on slice of the
// chaos soak: kill, restart, automatic rejoin, and recovered progress —
// without the throughput gate.
func TestSelfHealRejoinAfterHardRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second TCP integration test")
	}
	runChaosRecovery(t, nil, fault.Config{}, 5, 5, 0)
}

// soakGate runs the full recovery gate on one averaging topology: under
// seeded drops and stragglers, a hard kill + restart must recover to
// >=90% of the job's fault-free throughput.
func soakGate(t *testing.T, topo netx.Topology) {
	t.Helper()
	base := soakBaseline(t, topo, 40)
	chaos := fault.Config{
		Seed:          13,
		MsgDropProb:   0.02,
		StragglerProb: 0.01, StragglerDelay: time.Millisecond,
	}
	rate := runChaosRecovery(t, topo, chaos, 10, 10, 40)
	t.Logf("fault-free %.1f rounds/s, recovered %.1f rounds/s (%.0f%%)", base, rate, 100*rate/base)
	if rate < 0.9*base {
		t.Fatalf("recovered throughput %.1f rounds/s is below 90%% of the fault-free %.1f rounds/s", rate, base)
	}
}

// TestChaosSoakRecovery is the full recovery gate (make faults-soak) on
// the default full mesh.
func TestChaosSoakRecovery(t *testing.T) {
	if os.Getenv("AVGPIPE_SOAK") == "" {
		t.Skip("chaos soak: set AVGPIPE_SOAK=1 (or run `make faults-soak`)")
	}
	soakGate(t, nil)
}

// TestChaosSoakRecoveryRing runs the same gate on the ring fabric: the
// restarted replica re-forms with FormTopologyOn, so every new session —
// the survivor's re-dial and the restart's fresh dial alike — must
// re-negotiate the ring's group-hello fingerprint before re-admission.
func TestChaosSoakRecoveryRing(t *testing.T) {
	if os.Getenv("AVGPIPE_SOAK") == "" {
		t.Skip("chaos soak: set AVGPIPE_SOAK=1 (or run `make faults-soak`)")
	}
	soakGate(t, netx.Ring{})
}
