package collect_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"avgpipe/internal/core"
	"avgpipe/internal/fault"
	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/obs/collect"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// formMeshes assembles an n-replica TCP full mesh over loopback inside
// one test process, with clocks synced — exactly what n avgpipe-train
// processes would form.
func formMeshes(t *testing.T, n int) []*netx.Mesh {
	t.Helper()
	trs := make([]netx.Transport, n)
	lns := make([]netx.Listener, n)
	for i := range lns {
		trs[i] = netx.NewTCP(obs.NewRegistry())
		ln, err := trs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	meshes, err := netx.FormJob(ctx, trs, lns, netx.FullMesh{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, m := range meshes {
			m.Close()
		}
	})
	// Every replica pings its peers while answering theirs, so the syncs
	// run concurrently.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, m := range meshes {
		wg.Add(1)
		go func(i int, m *netx.Mesh) {
			defer wg.Done()
			errs[i] = m.SyncClocks(ctx)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("replica %d clock sync: %v", i, err)
		}
	}
	return meshes
}

// TestE2EDistTelemetry is the acceptance test for the telemetry plane:
// a 2-replica TCP training job (one straggler by fault injection) pushes
// snapshots, events, and traces to one collector over TCP, and the
// merged view must be the union of the per-replica state, clock-aligned,
// with the straggler surfaced as health events.
func TestE2EDistTelemetry(t *testing.T) {
	const (
		n      = 2
		rounds = 3
	)
	task := workload.TranslationTask()
	meshes := formMeshes(t, n)

	col, err := collect.NewCollector(collect.CollectorConfig{
		Transport: netx.NewTCP(obs.NewRegistry()), Listen: "127.0.0.1:0",
		Expect: n, Registry: obs.NewRegistry(), StragglerThreshold: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	regs := make([]*obs.Registry, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		regs[p] = obs.NewRegistry()
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = func() error {
				var faults fault.Config
				if p == 1 {
					// Replica 1 is the straggler: every stage op slowed.
					// The delay is sized so the batch-time gap dwarfs the
					// baseline compute even when -race inflates it ~10x.
					faults = fault.Config{Seed: 9, StragglerProb: 1, StragglerDelay: 20 * time.Millisecond}
				}
				trainer, err := core.NewTrainer(core.TrainerConfig{
					Task: task, Pipelines: n, Micro: 2, StageCount: 2,
					Seed: 11, ClipNorm: 5, Obs: regs[p], Faults: faults,
					Dist: &core.DistConfig{ReplicaID: p, Mesh: meshes[p]},
				})
				if err != nil {
					return err
				}
				defer trainer.Close()
				tracer := obs.NewTracer("e2e")
				trainer.Averager().SetTracer(tracer)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				pub, err := collect.NewPublisher(ctx, collect.PublisherConfig{
					Transport: netx.NewTCP(obs.NewRegistry()), Addr: col.Addr(),
					Replica: p, Registry: regs[p], Tracer: tracer,
				})
				cancel()
				if err != nil {
					return err
				}
				defer pub.Close()
				for r := 0; r < rounds; r++ {
					if _, err := trainer.StepContext(context.Background()); err != nil {
						return fmt.Errorf("round %d: %w", r, err)
					}
					if err := pub.Flush(); err != nil {
						return fmt.Errorf("flush after round %d: %w", r, err)
					}
				}
				return nil
			}()
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("replica %d: %v", p, err)
		}
	}
	waitFor(t, "both final snapshots", func() bool {
		snaps := col.Snapshots()
		for p := 0; p < n; p++ {
			if v, ok := trainRound(snaps, p); !ok || v < rounds {
				return false
			}
		}
		return true
	})

	// 1. The merged exposition is the union of the per-replica
	// snapshots: every series the replicas reported appears under its
	// replica label with the reported value.
	merged := col.MergedFamilies()
	for p, snap := range col.Snapshots() {
		for _, f := range snap.Families {
			for _, s := range f.Series {
				labels := obs.WithLabel(s.Labels, "replica", fmt.Sprint(p))
				if f.Type == "histogram" {
					if !hasSeries(merged, f.Name, labels) {
						t.Errorf("merged missing histogram %s{%s}", f.Name, labels)
					}
					continue
				}
				if v, ok := obs.SeriesValue(merged, f.Name, labels); !ok || v != s.Value {
					t.Errorf("merged %s{%s} = (%v, %v), want %v", f.Name, labels, v, ok, s.Value)
				}
			}
		}
	}
	// Dist-mode trainer metrics carry their own replica label, which the
	// collector must not duplicate.
	for p := 0; p < n; p++ {
		if v, ok := obs.SeriesValue(merged, "avgpipe_train_round", fmt.Sprintf(`replica="%d"`, p)); !ok || v != rounds {
			t.Errorf("avgpipe_train_round replica %d = (%v, %v), want %d", p, v, ok, rounds)
		}
	}
	if ready, reason := col.Health().Ready(); !ready {
		t.Errorf("collector not ready after full job: %s", reason)
	}

	// 2. The merged Chrome trace loads, and after clock-offset
	// correction every replica's row is monotonic with non-negative
	// rebased timestamps.
	var buf bytes.Buffer
	if err := col.WriteMergedTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not loadable JSON: %v", err)
	}
	lastTS := map[int]float64{}
	spansByReplica := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		if ev.TS < 0 {
			t.Fatalf("negative merged timestamp %v", ev.TS)
		}
		if ev.TS < lastTS[ev.PID] {
			t.Fatalf("replica row pid %d not monotonic: %v after %v", ev.PID, ev.TS, lastTS[ev.PID])
		}
		lastTS[ev.PID] = ev.TS
		spansByReplica[ev.PID/1000-1]++
	}
	for p := 0; p < n; p++ {
		if spansByReplica[p] == 0 {
			t.Errorf("no averaging spans from replica %d in the merged trace", p)
		}
	}

	// 3. The injected straggler surfaces as health events: the
	// injector's straggler_injected (shipped within the round it fired)
	// and the collector's own cross-replica straggler_detected.
	events := col.Events()
	if countEvents(events, obs.EventStragglerInjected, 1) == 0 {
		t.Error("no straggler_injected event from replica 1 reached the collector")
	}
	if countEvents(events, obs.EventStragglerDetected, 1) == 0 {
		t.Error("collector never flagged replica 1 as a straggler")
	}
	if countEvents(events, obs.EventStragglerInjected, 0) != 0 {
		t.Error("straggler events attributed to the healthy replica")
	}
}

func trainRound(snaps map[int]collect.Snapshot, p int) (float64, bool) {
	snap, ok := snaps[p]
	if !ok {
		return 0, false
	}
	for _, f := range snap.Families {
		if f.Name != "avgpipe_train_round" {
			continue
		}
		for _, s := range f.Series {
			return s.Value, true
		}
	}
	return 0, false
}

// TestRacePublishVsMembership hammers the snapshot/event publish path
// concurrently with Detach/Rejoin membership changes and live update
// traffic — the race-tier gate for the telemetry plane. The assertions
// are clean shutdown and that membership changes surface as events at
// the collector.
func TestRacePublishVsMembership(t *testing.T) {
	const (
		n      = 3
		rounds = 10
	)
	task := workload.TranslationTask()
	meshes := formMeshes(t, n)

	col, err := collect.NewCollector(collect.CollectorConfig{
		Transport: netx.NewTCP(obs.NewRegistry()), Listen: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	regs := make([]*obs.Registry, n)
	avgs := make([]*core.Averager, n)
	params := make([][]*nn.Param, n)
	for p := 0; p < n; p++ {
		regs[p] = obs.NewRegistry()
		m := task.NewModel(3)
		params[p] = m.Params()
		avgs[p] = core.NewAveragerObs(n, m.Params(), regs[p])
		avgs[p].AttachMesh(meshes[p])
		avgs[p].SetRoundDeadline(30 * time.Millisecond)
	}

	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			pub, err := collect.NewPublisher(ctx, collect.PublisherConfig{
				Transport: netx.NewTCP(obs.NewRegistry()), Addr: col.Addr(),
				Replica: p, Registry: regs[p], Interval: time.Millisecond,
			})
			cancel()
			if err != nil {
				t.Errorf("publisher %d: %v", p, err)
				return
			}
			pub.Start() // publish loop races the membership churn below
			defer pub.Close()
			a := avgs[p]
			for r := 0; r < rounds; r++ {
				if p == 2 && r%4 == 1 {
					a.Detach(p)
				}
				if p == 2 && r%4 == 3 {
					a.Rejoin(p, params[p])
				}
				if a.Live(p) {
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
				if err := pub.Flush(); err != nil {
					t.Errorf("replica %d flush: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p := 0; p < n; p++ {
		avgs[p].Close()
	}
	waitFor(t, "detach and rejoin events", func() bool {
		events := col.Events()
		return countEvents(events, obs.EventReplicaDetach, 2) > 0 &&
			countEvents(events, obs.EventReplicaRejoin, 2) > 0
	})
}
