package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// trainSUT is one set-up training job: the facade trainers (one for a
// single-process job, one per replica in dist mode) and the lanes that
// step them.
type trainSUT struct {
	spec     *trainSpec
	task     *task
	trainers []*trainer
	lanes    []*lane
}

// forEachReplica calls build for every process-sized piece of the job:
// once (replica -1, no mesh) for a single-process job, or once per
// replica of a dist-mode job with that replica's end of a fresh TCP
// loopback full mesh whose transports record into regs. What build
// returns owns its mesh; when build fails the meshes not yet handed over
// are closed here.
func forEachReplica(ctx context.Context, spec *trainSpec, regs []*registry, build func(replica int, m *mesh) error) error {
	if !spec.dist {
		return build(-1, nil)
	}
	mctx, cancel := context.WithTimeout(ctx, meshTimeout)
	meshes, err := formLoopbackMeshes(mctx, spec.n, regs)
	cancel()
	if err != nil {
		return err
	}
	for p := range meshes {
		if err := build(p, meshes[p]); err != nil {
			for _, m := range meshes[p:] {
				m.Close()
			}
			return err
		}
	}
	return nil
}

// buildTrainers builds the job through the facade: one trainer, or in
// dist mode one trainer per replica, all on the library's default
// registry (nil).
func buildTrainers(ctx context.Context, spec *trainSpec, t *task, seed int64, faults faultConfig) (*trainSUT, error) {
	s := &trainSUT{spec: spec, task: t}
	err := forEachReplica(ctx, spec, make([]*registry, spec.n), func(p int, m *mesh) error {
		tr, err := newTrainer(t, spec.n, spec.k, spec.m, seed, clipNorm, faults, p, m)
		if err != nil {
			return err
		}
		s.trainers = append(s.trainers, tr)
		s.lanes = append(s.lanes, &lane{step: func(ctx context.Context) (float64, error) {
			return trainerStep(ctx, tr)
		}})
		return nil
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// setupTrain is what setup_s times: build the job, run the warm-up
// rounds.
func setupTrain(ctx context.Context, spec *trainSpec, seed int64, faults faultConfig) (*trainSUT, error) {
	s, err := buildTrainers(ctx, spec, spec.newTask(), seed, faults)
	if err != nil {
		return nil, err
	}
	runLanes(ctx, s.lanes, time.Time{}, warmupRounds)
	if err := lanesErr(s.lanes, warmupRounds); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func lanesErr(lanes []*lane, wantRounds int) error {
	for i, l := range lanes {
		if l.failed > 0 {
			return fmt.Errorf("lane %d: a round failed", i)
		}
		if wantRounds > 0 && len(l.losses) != wantRounds {
			return fmt.Errorf("lane %d ran %d rounds, want %d", i, len(l.losses), wantRounds)
		}
	}
	return nil
}

// close shuts the replicas down together: a dist-mode Close drains and
// then closes its mesh, which its peers must be doing too.
func (s *trainSUT) close() {
	var wg sync.WaitGroup
	for _, tr := range s.trainers {
		wg.Add(1)
		go func(tr *trainer) { defer wg.Done(); tr.Close() }(tr)
	}
	wg.Wait()
}

// stepper is the benchmark-owned replay of Trainer.StepContext from the
// layers' public pieces, with a span around every call. One stepper is
// either a whole single-process job (replica < 0: all N pipelines, the
// in-process averager) or one replica of a dist-mode job.
type stepper struct {
	spec    *trainSpec
	task    *task
	replica int // -1 = every pipeline is local
	pipes   []*pipeline
	gens    []generator
	opts    []optimizer
	avg     *averager
	round   int
	rec     *recorder

	// per-pipeline sums of Pipeline.Metrics() over the recorded batches
	busy, wait [][]time.Duration
	batches    int
}

func (s *stepper) local(p int) bool { return s.replica < 0 || s.replica == p }

// newStepper mirrors NewTrainer: every replica starts from the model
// seeded `seed`, replica p reads the stream seeded seed+100+p, and the
// reference starts as a copy of the same model.
func newStepper(spec *trainSpec, t *task, seed int64, faults faultConfig, replica int, m *mesh, reg *registry) (*stepper, error) {
	s := &stepper{spec: spec, task: t, replica: replica,
		pipes: make([]*pipeline, spec.n), gens: make([]generator, spec.n), opts: make([]optimizer, spec.n),
		busy: make([][]time.Duration, spec.n), wait: make([][]time.Duration, spec.n)}
	in, err := newInjector(faults, reg)
	if err != nil {
		return nil, err
	}
	base := t.NewModel(seed)
	for p := 0; p < spec.n; p++ {
		if !s.local(p) {
			continue
		}
		pl, err := newPipeline(t.NewModel(seed), spec.k, reg, in, p)
		if err != nil {
			return nil, err
		}
		s.pipes[p] = pl
		s.gens[p] = t.NewGen(seed + 100 + int64(p))
		s.opts[p] = newOptimizer(t)
		s.busy[p] = make([]time.Duration, spec.k)
		s.wait[p] = make([]time.Duration, spec.k)
	}
	s.avg = newAverager(spec.n, base.Params(), reg, in, m)
	return s, nil
}

func (s *stepper) close() { avgClose(s.avg) }

// localStep is everything one pipeline does between drawing its batch
// and handing its update to the averager.
func (s *stepper) localStep(ctx context.Context, p int, b *batch, root, lane int) (float64, error) {
	pl, ps, rec, r := s.pipes[p], s.pipes[p].Params(), s.rec, s.round
	id := rec.begin("core.run_batch", root, r, lane)
	loss, err := runBatch(ctx, pl, b, s.spec.m)
	rec.end(id)
	if err != nil {
		zeroGrads(ps)
		return 0, fmt.Errorf("pipeline %d: %w", p, err)
	}
	busy, wait := stageTimes(pl)
	for st := range busy {
		s.busy[p][st] += busy[st]
		s.wait[p][st] += wait[st]
	}
	id = rec.begin("optim.clip", root, r, lane)
	clipGradNorm(ps, clipNorm)
	rec.end(id)
	id = rec.begin("optim.step", root, r, lane)
	optimStep(s.opts[p], ps)
	rec.end(id)
	id = rec.begin("optim.zero_grads", root, r, lane)
	zeroGrads(ps)
	rec.end(id)
	id = rec.begin("avg.submit", root, r, lane)
	err = avgSubmit(ctx, s.avg, p, r, ps)
	rec.end(id)
	return loss, err
}

// step runs one round the way Trainer.StepContext does and returns the
// same loss: the mean over pipelines for a single-process job, the
// local loss for a dist replica.
func (s *stepper) step(ctx context.Context) (float64, error) {
	if s.replica >= 0 {
		return s.stepDist(ctx)
	}
	rec, r, n := s.rec, s.round, s.spec.n
	root := rec.begin("step", -1, r, 0)
	defer rec.end(root)
	batches := make([]*batch, n)
	for p := 0; p < n; p++ {
		id := rec.begin("data.next_batch", root, r, 0)
		batches[p] = nextBatch(s.gens[p], s.task.BatchSize)
		rec.end(id)
	}
	losses := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			losses[p], errs[p] = s.localStep(ctx, p, batches[p], root, p+1)
		}(p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	id := rec.begin("avg.wait", root, r, 0)
	err := avgDrain(ctx, s.avg)
	rec.end(id)
	if err != nil {
		return 0, err
	}
	for p := 0; p < n; p++ {
		id := rec.begin("avg.dilute", root, r, 0)
		avgDilute(s.avg, p, s.pipes[p].Params())
		rec.end(id)
	}
	s.round++
	s.batches++
	var total float64
	for _, l := range losses {
		total += l
	}
	return total / float64(n), nil
}

func (s *stepper) stepDist(ctx context.Context) (float64, error) {
	rec, r, p := s.rec, s.round, s.replica
	root := rec.begin("step", -1, r, p)
	defer rec.end(root)
	id := rec.begin("data.next_batch", root, r, p)
	b := nextBatch(s.gens[p], s.task.BatchSize)
	rec.end(id)
	loss, err := s.localStep(ctx, p, b, root, p)
	if err != nil {
		return 0, err
	}
	id = rec.begin("avg.wait", root, r, p)
	err = avgWaitRound(ctx, s.avg, r)
	rec.end(id)
	if err != nil {
		return 0, err
	}
	id = rec.begin("avg.dilute", root, r, p)
	avgDilute(s.avg, p, s.pipes[p].Params())
	rec.end(id)
	s.round++
	s.batches++
	return loss, nil
}

// replaySUT is a training job assembled from steppers instead of facade
// trainers: same geometry, same seeds, same lanes.
type replaySUT struct {
	steppers []*stepper
	lanes    []*lane
	regs     []*registry
}

func setupReplay(ctx context.Context, spec *trainSpec, seed int64, faults faultConfig) (*replaySUT, error) {
	s := &replaySUT{}
	t := spec.newTask()
	s.regs = []*registry{newRegistry()} // one per process-sized piece
	for spec.dist && len(s.regs) < spec.n {
		s.regs = append(s.regs, newRegistry())
	}
	err := forEachReplica(ctx, spec, s.regs, func(p int, m *mesh) error {
		st, err := newStepper(spec, t, seed, faults, p, m, s.regs[max(p, 0)])
		if err != nil {
			return err
		}
		s.steppers = append(s.steppers, st)
		s.lanes = append(s.lanes, &lane{step: st.step})
		return nil
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *replaySUT) close() {
	var wg sync.WaitGroup
	for _, st := range s.steppers {
		wg.Add(1)
		go func(st *stepper) { defer wg.Done(); st.close() }(st)
	}
	wg.Wait()
}

func (s *replaySUT) setRecorder(rec *recorder) {
	for _, st := range s.steppers {
		st.rec = rec
	}
}

// netSent sums the replicas' TCP wire counters.
func (s *replaySUT) netSent() (bytes, frames float64) {
	for _, reg := range s.regs {
		b, f := netSent(reg)
		bytes, frames = bytes+b, frames+f
	}
	return bytes, frames
}

// stageStats folds every stepper's Pipeline.Metrics() sums into the
// mean busy time of one stage over one batch (ms) and the job's bubble
// fraction, wait ÷ (busy + wait).
func (s *replaySUT) stageStats() (busyMS, bubble float64) {
	var busy, wait time.Duration
	var stageBatches int
	for _, st := range s.steppers {
		for p := range st.busy {
			for k := range st.busy[p] {
				busy += st.busy[p][k]
				wait += st.wait[p][k]
				stageBatches += st.batches
			}
		}
	}
	if stageBatches == 0 || busy+wait == 0 {
		return 0, 0
	}
	return ms(int64(busy)) / float64(stageBatches), float64(wait) / float64(busy+wait)
}

// resetStats drops the stage sums gathered so far (after warm-up).
func (s *stepper) resetStats() {
	for p := range s.busy {
		for k := range s.busy[p] {
			s.busy[p][k], s.wait[p][k] = 0, 0
		}
	}
	s.batches = 0
}

func (s *stepper) firstPipeline() *pipeline {
	for _, pl := range s.pipes {
		if pl != nil {
			return pl
		}
	}
	return nil
}
