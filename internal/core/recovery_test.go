package core

import (
	"context"
	"errors"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"avgpipe/internal/fault"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/sched"
	"avgpipe/internal/workload"
)

// --- averager elastic recovery ---

// addAll adds v to every element of every parameter, so the replica's
// next delta is exactly v per element.
func addAll(ps []*nn.Param, v float32) {
	for _, p := range ps {
		d := p.W.Data()
		for i := range d {
			d[i] += v
		}
	}
}

func TestAveragerDetachRenormalizes(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAveragerObs(3, paramsOf(0), reg)
	defer a.Close()
	// Round 0 at full strength: deltas 3, 6, 9 → reference mean 6.
	r0, r1, r2 := paramsOf(3), paramsOf(6), paramsOf(9)
	submit(t, a, 0, 0, r0)
	submit(t, a, 1, 0, r1)
	submit(t, a, 2, 0, r2)
	drain(t, a)
	if got := a.Reference()[0].At(0); got != 6 {
		t.Fatalf("reference after full round = %v, want 6", got)
	}
	// Reset delta baselines to current replica weights.
	a.Dilute(0, r0)
	a.Dilute(1, r1)
	a.Dilute(2, r2)

	a.Detach(2)
	if a.LiveReplicas() != 2 || a.Live(2) {
		t.Fatalf("after detach: live=%d, Live(2)=%v", a.LiveReplicas(), a.Live(2))
	}
	if got := reg.Gauge("avgpipe_avg_degraded_replicas", "").Value(); got != 1 {
		t.Fatalf("degraded gauge %v, want 1", got)
	}
	// Round 1 must complete with only the two live replicas, and the
	// moving rate renormalizes over the 2 arrivals, not N=3.
	ref1 := a.Reference()[0].At(0)
	addAll(r0, 2) // delta 2
	addAll(r1, 4) // delta 4
	submit(t, a, 0, 1, r0)
	submit(t, a, 1, 1, r1)
	drain(t, a)
	if a.PendingRounds() != 0 {
		t.Fatalf("round 1 still pending with %d open rounds after detach", a.PendingRounds())
	}
	if got, want := a.Reference()[0].At(0), ref1+3; got != want {
		t.Fatalf("degraded round reference = %v, want %v (mean of 2 live deltas)", got, want)
	}
}

func TestAveragerDetachClosesWaitingRound(t *testing.T) {
	a := NewAveragerObs(2, paramsOf(0), nil)
	defer a.Close()
	r0 := paramsOf(1)
	submit(t, a, 0, 0, r0)
	drain(t, a) // ingested but the round still waits on replica 1
	if a.PendingRounds() != 1 {
		t.Fatalf("open rounds = %d, want 1", a.PendingRounds())
	}
	a.Detach(1)
	if a.PendingRounds() != 0 {
		t.Fatal("detach did not close the round waiting only on the departed replica")
	}
	if got := a.Reference()[0].At(0); got != 1 {
		t.Fatalf("reference = %v, want 1 (renormalized over the single arrival)", got)
	}
}

// A local Detach queues behind the updates already sent, as a peer's
// detach frame does: replica 2's update, submitted just before its
// crash, counts toward the still-open round here exactly as it does on a
// peer that detaches replica 2 later.
func TestAveragerDetachQueuesBehindSentUpdates(t *testing.T) {
	a := NewAveragerObs(3, paramsOf(0), nil)
	defer a.Close()
	submit(t, a, 0, 0, paramsOf(3))
	submit(t, a, 2, 0, paramsOf(9))
	a.Detach(2)
	if a.PendingRounds() != 1 {
		t.Fatalf("open rounds = %d, want 1 (round 0 still waits on replica 1)", a.PendingRounds())
	}
	submit(t, a, 1, 0, paramsOf(6))
	drain(t, a)
	if got := a.Reference()[0].At(0); got != 6 {
		t.Fatalf("reference = %v, want 6 (mean of all three updates sent before the detach)", got)
	}
}

func TestAveragerRejoinReseedsFromReference(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAveragerObs(2, paramsOf(5), reg)
	defer a.Close()
	a.Detach(1)
	r0 := paramsOf(7) // delta +2 from the shared init of 5
	submit(t, a, 0, 0, r0)
	drain(t, a)
	if got := a.Reference()[0].At(0); got != 7 {
		t.Fatalf("solo round reference = %v, want 7", got)
	}
	// The rejoining replica restarts from the reference, whatever its
	// weights were when it died.
	r1 := paramsOf(123)
	a.Rejoin(1, r1)
	if got := r1[0].W.At(0); got != 7 {
		t.Fatalf("rejoined replica weight = %v, want the reference 7", got)
	}
	if !a.Live(1) || a.LiveReplicas() != 2 {
		t.Fatalf("after rejoin: live=%d, Live(1)=%v", a.LiveReplicas(), a.Live(1))
	}
	// It owes nothing before its join round, so round progress counts it
	// caught up — the heal supervisor must not see it as behind.
	if latest, last := a.RoundProgress(); last[1] < latest {
		t.Fatalf("rejoined replica's progress %d trails round %d before it could submit", last[1], latest)
	}
	if got := reg.Counter("avgpipe_avg_detaches_total", "").Value(); got != 1 {
		t.Fatalf("detaches counter %v, want 1", got)
	}
	if got := reg.Counter("avgpipe_avg_rejoins_total", "").Value(); got != 1 {
		t.Fatalf("rejoins counter %v, want 1", got)
	}
	if got := reg.Histogram("avgpipe_avg_recovery_seconds", "", nil).Count(); got != 1 {
		t.Fatalf("recovery histogram count %v, want 1", got)
	}
	if got := reg.Gauge("avgpipe_avg_degraded_replicas", "").Value(); got != 0 {
		t.Fatalf("degraded gauge %v, want 0 after rejoin", got)
	}
	// Its first post-recovery delta is measured from the reseeded
	// baseline: both replicas move +2, so the reference moves +2.
	a.Dilute(0, r0)
	addAll(r0, 2)
	addAll(r1, 2)
	submit(t, a, 0, 1, r0)
	submit(t, a, 1, 1, r1)
	drain(t, a)
	if got := a.Reference()[0].At(0); got != 9 {
		t.Fatalf("post-rejoin reference = %v, want 9", got)
	}
	// Detach/Rejoin of out-of-range or already-live replicas are no-ops.
	a.Detach(99)
	a.Rejoin(0, r0)
	if a.LiveReplicas() != 2 {
		t.Fatal("no-op detach/rejoin changed the live set")
	}
}

// A replica rejoining while a round is open must not count toward that
// round's quorum: it will never submit to it, so admitting it would
// leave the round one update short forever (regression test for the
// inflated-quorum wedge).
func TestAveragerRejoinDoesNotInflateOpenRoundQuorum(t *testing.T) {
	a := NewAveragerObs(3, paramsOf(0), nil)
	defer a.Close()
	a.Detach(2)
	// Round 0 opens with quorum {0, 1}.
	r0, r1 := paramsOf(4), paramsOf(8)
	submit(t, a, 0, 0, r0)
	drain(t, a) // ensure the round is open before the rejoin
	if a.PendingRounds() != 1 {
		t.Fatalf("round 0 not open: %d pending", a.PendingRounds())
	}
	r2 := paramsOf(0)
	a.Rejoin(2, r2)
	// Replica 1's update is the second of two — the round must close
	// even though three replicas are now live.
	submit(t, a, 1, 0, r1)
	drain(t, a)
	if a.PendingRounds() != 0 {
		t.Fatal("round 0 wedged: rejoined replica counted toward an open round's quorum")
	}
	if got := a.Reference()[0].At(0); got != 6 {
		t.Fatalf("round 0 reference = %v, want 6 (mean of the two admitted deltas)", got)
	}
	// From the next round on, the rejoined replica is a full member:
	// round 1 must wait for all three.
	a.Dilute(0, r0)
	a.Dilute(1, r1)
	addAll(r0, 3)
	addAll(r1, 3)
	addAll(r2, 3)
	submit(t, a, 0, 1, r0)
	submit(t, a, 1, 1, r1)
	drain(t, a)
	if a.PendingRounds() != 1 {
		t.Fatalf("round 1 closed without the rejoined replica: %d pending", a.PendingRounds())
	}
	submit(t, a, 2, 1, r2)
	drain(t, a)
	if a.PendingRounds() != 0 {
		t.Fatal("round 1 did not close after every live replica reported")
	}
	if got := a.Reference()[0].At(0); got != 9 {
		t.Fatalf("round 1 reference = %v, want 9", got)
	}
}

func TestAveragerRoundDeadlineExpiresPartialRound(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAveragerObs(2, paramsOf(0), reg)
	defer a.Close()
	a.SetRoundDeadline(20 * time.Millisecond)
	r0 := paramsOf(4)
	submit(t, a, 0, 0, r0)
	drain(t, a) // the update is ingested; the round waits on replica 1
	deadline := time.Now().Add(5 * time.Second)
	for a.PendingRounds() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if a.PendingRounds() != 0 {
		t.Fatal("deadline never expired the partial round")
	}
	if got := reg.Counter("avgpipe_avg_rounds_expired_total", "").Value(); got != 1 {
		t.Fatalf("expired counter %v, want 1", got)
	}
	if got := a.Reference()[0].At(0); got != 4 {
		t.Fatalf("expired round reference = %v, want 4 (normalized over the one arrival)", got)
	}
	// The straggler's update for the expired round arrives late: it is
	// discarded — never re-opens the round, never moves the reference —
	// and Drain still returns.
	r1 := paramsOf(100)
	submit(t, a, 1, 0, r1)
	drain(t, a)
	if got := reg.Counter("avgpipe_avg_late_updates_total", "").Value(); got != 1 {
		t.Fatalf("late-updates counter %v, want 1", got)
	}
	if got := a.Reference()[0].At(0); got != 4 {
		t.Fatalf("late update moved the reference to %v", got)
	}
	if a.PendingRounds() != 0 {
		t.Fatal("late update re-opened a closed round")
	}
}

func TestAveragerSubmitErrorPaths(t *testing.T) {
	a := NewAveragerObs(2, paramsOf(0), nil)
	if err := a.SubmitContext(context.Background(), 5, 0, paramsOf(1)); err == nil {
		t.Fatal("out-of-range pipeline must be an error")
	}
	a.Close()
	if err := a.SubmitContext(context.Background(), 0, 0, paramsOf(1)); err == nil {
		t.Fatal("submit after Close must be an error, not a wedge")
	}
}

// TestAveragerDrainCloseSubmitRace hammers Submit from all replicas while
// Drain and Close run concurrently — the -race tier's target. The
// invariants: no data race, no deadlock, and Close always returns.
func TestAveragerDrainCloseSubmitRace(t *testing.T) {
	a := NewAveragerObs(4, paramsOf(0), obs.NewRegistry())
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := paramsOf(1)
			// Bounded rounds: an unbounded spray lets a fast submitter run
			// millions of rounds ahead, which is a memory test, not a race
			// test.
			for round := 0; round < 3000; round++ {
				if err := a.SubmitContext(context.Background(), p, round, r); err != nil {
					return // queue closed: the expected exit
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for i := 0; i < 20; i++ {
			if err := a.DrainContext(ctx); err != nil {
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	done := make(chan struct{})
	go func() { a.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close wedged against concurrent Submit/Drain")
	}
	wg.Wait()
}

// --- trainer chaos recovery (the acceptance scenario) ---

// TestTrainerChaosRecovery crashes 1 of 4 pipelines mid-training, delays
// 10% of averaging messages, and requires the run to complete, the
// replica to rejoin, and the final eval loss to stay within 5% of the
// fault-free run with the same seed.
func TestTrainerChaosRecovery(t *testing.T) {
	task := workload.ClassificationTask()
	const n, rounds, crashRound, rejoinAfter = 4, 40, 10, 5
	// The Makefile faults tier sweeps this seed over a fixed matrix; every
	// seed must recover.
	faultSeed := int64(99)
	if s := os.Getenv("AVGPIPE_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("AVGPIPE_CHAOS_SEED %q: %v", s, err)
		}
		faultSeed = v
	}
	build := func(f fault.Config, deadline time.Duration, reg *obs.Registry) *Trainer {
		t.Helper()
		tr, err := NewTrainer(TrainerConfig{
			Task: task, Pipelines: n, Micro: 2, StageCount: 2, Seed: 21,
			ClipNorm: 5, Obs: reg, Faults: f, RoundDeadline: deadline,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	reg := obs.NewRegistry()
	chaos := build(fault.Config{
		Seed:          faultSeed,
		MsgDelayProb:  0.10,
		MsgDelay:      2 * time.Millisecond,
		CrashPipeline: 2,
		CrashRound:    crashRound,
		RejoinAfter:   rejoinAfter,
	}, 250*time.Millisecond, reg)
	defer chaos.Close()
	clean := build(fault.Config{}, 0, obs.NewRegistry())
	defer clean.Close()

	for r := 0; r < rounds; r++ {
		if _, err := chaos.StepContext(context.Background()); err != nil {
			t.Fatalf("chaos round %d: %v", r, err)
		}
		clean.Step()
		switch r {
		case crashRound:
			if live := chaos.Averager().LiveReplicas(); live != n-1 {
				t.Fatalf("round %d: %d live replicas, want %d (crash)", r, live, n-1)
			}
		case crashRound + rejoinAfter:
			if live := chaos.Averager().LiveReplicas(); live != n {
				t.Fatalf("round %d: %d live replicas, want %d (rejoin)", r, live, n)
			}
		}
	}
	if got := reg.Counter("avgpipe_fault_crashes_total", "").Value(); got != 1 {
		t.Errorf("crashes counter %v, want 1", got)
	}
	if got := reg.Counter("avgpipe_fault_rejoins_total", "").Value(); got != 1 {
		t.Errorf("rejoins counter %v, want 1", got)
	}
	if got := reg.Counter("avgpipe_fault_msgs_delayed_total", "").Value(); got == 0 {
		t.Error("no messages were delayed at MsgDelayProb = 0.10 over 160 updates")
	}
	lossChaos, _ := chaos.Eval()
	lossClean, _ := clean.Eval()
	if ratio := lossChaos / lossClean; ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("chaos loss %v vs fault-free %v (ratio %.3f): outside ±5%%",
			lossChaos, lossClean, ratio)
	}
}

// TestTrainerRejectsBadConfig pins the error-not-panic constructor
// contract on the public surface.
func TestTrainerRejectsBadConfig(t *testing.T) {
	task := workload.TranslationTask()
	cases := []TrainerConfig{
		{},
		{Task: task, Pipelines: 0, Micro: 2, StageCount: 2},
		{Task: task, Pipelines: 2, Micro: 2, StageCount: 2,
			Faults: fault.Config{MsgDropProb: 2}},
		{Task: task, Pipelines: 2, Micro: 2, StageCount: 2,
			Advance: []int{1, 2, 3}}, // wrong length for K=2
	}
	for i, cfg := range cases {
		if _, err := NewTrainer(cfg); err == nil {
			t.Errorf("case %d: NewTrainer accepted a malformed config", i)
		}
	}
	if _, err := NewPipelineWith(task.NewModel(1), PipelineConfig{Stages: 0}); err == nil {
		t.Error("NewPipelineWith accepted zero stages")
	}
}

// --- checkpoint/restore ---

func equalFloat32s(x, y []float32) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// TestCheckpointBitExact is the acceptance check for restore fidelity:
// save at round r, restore into a fresh trainer, and the next round's
// parameters must be bit-identical to the uninterrupted run's round r+1.
// Translation has no dropout, so training is deterministic.
func TestCheckpointBitExact(t *testing.T) {
	task := workload.TranslationTask()
	cfg := TrainerConfig{Task: task, Pipelines: 2, Micro: 2, StageCount: 2,
		Seed: 5, ClipNorm: 5}
	dir := t.TempDir()

	a, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for r := 0; r < 5; r++ {
		a.Step()
	}
	if err := a.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	if !IsCheckpoint(dir) {
		t.Fatal("saved directory not recognized as a checkpoint")
	}
	a.Step() // the uninterrupted run's round r+1

	b, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if b.Round() != 5 {
		t.Fatalf("restored round %d, want 5", b.Round())
	}
	b.Step() // the restored run's round r+1
	drain(t, a.Averager())
	drain(t, b.Averager())

	for p := range a.Pipelines() {
		ap, bp := a.Pipelines()[p].Params(), b.Pipelines()[p].Params()
		for i := range ap {
			if !equalFloat32s(ap[i].W.Data(), bp[i].W.Data()) {
				t.Fatalf("replica %d param %d (%s) diverged after restore", p, i, ap[i].Name)
			}
		}
	}
	ar, br := a.Averager().Reference(), b.Averager().Reference()
	for i := range ar {
		if !equalFloat32s(ar[i].Data(), br[i].Data()) {
			t.Fatalf("reference tensor %d diverged after restore", i)
		}
	}
	al, aa := a.Eval()
	bl, ba := b.Eval()
	if al != bl || aa != ba {
		t.Fatalf("restored eval (%v, %v) != uninterrupted eval (%v, %v)", bl, ba, al, aa)
	}
}

// TestRestoreRejectsMismatchedTrainer pins the config-validation guard:
// restoring into a trainer whose seed or geometry differs is an error.
func TestRestoreRejectsMismatchedTrainer(t *testing.T) {
	task := workload.TranslationTask()
	cfg := TrainerConfig{Task: task, Pipelines: 2, Micro: 2, StageCount: 2, Seed: 5}
	dir := t.TempDir()
	a, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Step()
	if err := a.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	otherSeed := cfg
	otherSeed.Seed = 6
	b, err := NewTrainer(otherSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Restore(dir); err == nil {
		t.Fatal("restore accepted a trainer with a different seed")
	}
	otherN := cfg
	otherN.Pipelines = 3
	c, err := NewTrainer(otherN)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Restore(dir); err == nil {
		t.Fatal("restore accepted a trainer with a different pipeline count")
	}
	if err := b.Restore(t.TempDir()); err == nil {
		t.Fatal("restore accepted an empty directory")
	}
}

// --- watchdog ---

// wedgedSchedule deadlocks stage 0: stage 1's op list never produces the
// micro-1 gradient stage 0 waits for. sched.Analyze rejects it, so the
// test injects it directly into the pipeline's schedule cache.
func wedgedSchedule() *sched.Schedule {
	return &sched.Schedule{Name: "wedged", PerGPU: [][]sched.Op{
		{{Kind: sched.Fwd, Micro: 0}, {Kind: sched.Fwd, Micro: 1},
			{Kind: sched.Bwd, Micro: 0}, {Kind: sched.Bwd, Micro: 1}},
		{{Kind: sched.Fwd, Micro: 0}, {Kind: sched.Bwd, Micro: 0}},
	}}
}

// TestWatchdogKillsWedgedSchedule is the acceptance check for the
// runtime watchdog: a live-locked batch is killed within the window,
// the error dumps every stage's in-flight position, and nothing hangs.
func TestWatchdogKillsWedgedSchedule(t *testing.T) {
	task := workload.TranslationTask()
	reg := obs.NewRegistry()
	pl, err := NewPipelineWith(task.NewModel(1), PipelineConfig{Stages: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	pl.SetWatchdog(50 * time.Millisecond)
	s := wedgedSchedule()
	pl.fixed, pl.cur, pl.curM = s, s, 2

	batch := task.NewGen(3).NextBatch(8)
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = pl.RunBatchContext(context.Background(), batch, 2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog failed to kill the wedged batch")
	}
	var stall *StallError
	if !errors.As(runErr, &stall) {
		t.Fatalf("wedged batch returned %v, want *StallError", runErr)
	}
	if stall.Schedule != "wedged" || stall.Idle < stall.Window {
		t.Fatalf("stall error %+v: wrong schedule or idle < window", stall)
	}
	if len(stall.Stages) != 2 {
		t.Fatalf("stall dump covers %d stages, want 2", len(stall.Stages))
	}
	st0, st1 := stall.Stages[0], stall.Stages[1]
	if st0.Done || st0.NextOp != 3 || st0.Ops != 4 ||
		st0.Waiting.Kind != sched.Bwd || st0.Waiting.Micro != 1 {
		t.Fatalf("stage 0 dump %+v: want parked on op 3/4 (Bwd micro 1)", st0)
	}
	if !st1.Done {
		t.Fatalf("stage 1 dump %+v: want done", st1)
	}
	if msg := runErr.Error(); !strings.Contains(msg, "in-flight") || !strings.Contains(msg, "stage 0") {
		t.Fatalf("stall message lacks the state dump: %q", msg)
	}
	if got := reg.Counter("avgpipe_watchdog_stalls_total", "").Value(); got != 1 {
		t.Fatalf("stalls counter %v, want 1", got)
	}
	// The pipeline is reusable after the kill, and the Envs recycled
	// from the aborted batch (stage 0's micro 1 was stranded mid-flight)
	// carry no state: a healthy schedule reproduces a fresh pipeline's
	// loss and gradients bit for bit.
	pl.fixed, pl.cur, pl.curAn, pl.curM = nil, nil, nil, 0
	pl.SetWatchdog(0)
	nn.ZeroGrads(pl.Params()) // partial gradients are meaningless
	loss, err := pl.RunBatchContext(context.Background(), batch, 2)
	if err != nil {
		t.Fatalf("pipeline unusable after watchdog kill: %v", err)
	}
	fresh := newTestPipeline(t, task.NewModel(1), 2, nil)
	requireSameBits(t, "after watchdog kill", loss, runBatch(t, fresh, batch, 2), pl.Params(), fresh.Params())
}

// TestRunBatchContextCancel checks the other abort path: cancelling the
// context unwinds a blocked batch instead of leaking its stage workers.
func TestRunBatchContextCancel(t *testing.T) {
	task := workload.TranslationTask()
	pl, err := NewPipelineWith(task.NewModel(1), PipelineConfig{Stages: 2, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s := wedgedSchedule()
	pl.fixed, pl.cur, pl.curM = s, s, 2
	ctx, cancel := context.WithCancel(context.Background())
	batch := task.NewGen(3).NextBatch(8)
	done := make(chan error, 1)
	go func() {
		_, err := pl.RunBatchContext(ctx, batch, 2)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not unwind the blocked batch")
	}
}

// TestTrainerStragglerInjection checks the straggler hook end to end:
// with a high straggler probability the same training round takes
// measurably longer, and the straggler counter records the slow ops.
func TestTrainerStragglerInjection(t *testing.T) {
	task := workload.TranslationTask()
	reg := obs.NewRegistry()
	tr, err := NewTrainer(TrainerConfig{
		Task: task, Pipelines: 1, Micro: 2, StageCount: 2, Seed: 9, Obs: reg,
		Faults: fault.Config{Seed: 3, StragglerProb: 1, StragglerDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	start := time.Now()
	tr.Step()
	elapsed := time.Since(start)
	// Every op straggles 5ms. Of the 8 ops (2 stages × 2 micros ×
	// fwd+bwd), 6 serialize on the 1F1B dependency chain, so the round
	// cannot finish in under 30ms — an order of magnitude above the
	// ~3-8ms an uninjected round takes.
	if elapsed < 30*time.Millisecond {
		t.Fatalf("straggler-injected round took %v, expected ≥ 30ms", elapsed)
	}
	if got := reg.Counter("avgpipe_fault_straggler_ops_total", "").Value(); got < 8 {
		t.Fatalf("straggler counter %v, want ≥ 8", got)
	}
}
