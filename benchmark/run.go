package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// runResult is one run of one workload in one mode.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Op is the op-time series behind latency_ms_p50 / op.ms_p50: its
	// median, the highest percentile the sample supports, the count.
	Op timing `json:"op_ms"`
	// Whole holds the end-to-end figures over the whole timed region,
	// next to the best-window figures in Metrics (untraced runs).
	Whole *wholeRun `json:"whole_run,omitempty"`
	// UntracedP50 is the median op time of the traced run's untraced
	// phase, the denominator of trace.overhead_share.
	UntracedP50 float64 `json:"untraced_op_ms_p50,omitempty"`
	// Problems lists every correctness check that failed.
	Problems []string `json:"problems,omitempty"`

	spans []span
}

func newResult(w *workload, seed int64, traced bool, seconds float64) *runResult {
	return &runResult{Workload: w.Name, Seed: seed, Traced: traced, Seconds: seconds}
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *runResult) finish(ms *metricSet) {
	r.Metrics = ms.vals
	r.Correct = len(r.Problems) == 0
}

// runOpts are the knobs the self-check and the calibration modes turn;
// a contract run uses the zero value.
type runOpts struct {
	faults   faultConfig
	noProbes bool // skip the layer probes (self-check only reads spans)
}

// runWorkload runs one workload once, traced or not, for about
// `seconds` of measurement.
func runWorkload(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, o runOpts) (*runResult, error) {
	switch {
	case w.train != nil && traced:
		return runTrainTraced(ctx, w, seed, seconds, o)
	case w.train != nil:
		return runTrainUntraced(ctx, w, seed, seconds, o)
	case traced:
		return runServeTraced(ctx, w, seed, seconds, o)
	default:
		return runServeUntraced(ctx, w, seed, seconds)
	}
}

// wholeRun is what a plain mean over the timed region gives.
type wholeRun struct {
	OpsPerS    float64 `json:"ops_per_s"`
	P50MS      float64 `json:"latency_ms_p50"`
	CPUMSPerOp float64 `json:"cpu_ms_per_op"`
	Windows    int     `json:"windows"`
}

// repeatSetup sets a workload up setupRepeats times, closing every
// set-up but the last, and returns the last one with the median set-up
// time in seconds.
func repeatSetup[T interface{ close() }](setup func() (T, error)) (sut T, medianS float64, err error) {
	var took []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			sut.close()
		}
		t0 := time.Now()
		if sut, err = setup(); err != nil {
			return sut, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return sut, median(took), nil
}

// setEndToEnd fills an untraced run's four metrics from its timed
// region: ops and CPU marks become the three gated figures (see
// endToEndFigures), scaled by how many samples one op carries.
func setEndToEnd(out *metricSet, res *runResult, marks []cpuMark, ops []opSample, samplesPerOp int, setupS float64) {
	opsPerS, p50, cpuPerOp := endToEndFigures(res, marks, ops)
	out.set("samples_per_s", opsPerS*float64(samplesPerOp))
	out.set("latency_ms_p50", p50)
	out.set("cpu_ms_per_op", cpuPerOp)
	out.set("setup_s", setupS)
}

// endToEndFigures turns a timed region's ops and CPU marks into the
// three gated figures: each metric's best one-second window, or the
// whole-run figure when the run was too short to hold a window.
func endToEndFigures(res *runResult, marks []cpuMark, ops []opSample) (opsPerS, p50MS, cpuMSPerOp float64) {
	first, last := marks[0], marks[len(marks)-1]
	durs := make([]float64, len(ops))
	for i, o := range ops {
		durs[i] = o.ms
	}
	ws := windowStats(marks, ops)
	res.Whole = &wholeRun{
		OpsPerS:    float64(len(ops)) / (last.at - first.at).Seconds(),
		P50MS:      median(durs),
		CPUMSPerOp: ms(int64(last.cpu-first.cpu)) / float64(len(ops)),
		Windows:    len(ws),
	}
	if len(ws) == 0 {
		return res.Whole.OpsPerS, res.Whole.P50MS, res.Whole.CPUMSPerOp
	}
	return bestWindows(ws)
}

func secondsToDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func allDurations(lanes []*lane) (durs []float64, failed int) {
	for _, l := range lanes {
		durs = append(durs, l.durMS...)
		failed += l.failed
	}
	return durs, failed
}

// comparePrefix checks two loss sequences agree bit for bit over their
// common prefix and returns how many values that was.
func comparePrefix(a, b []float64) (n int, firstDiff int) {
	n = len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return n, i
		}
	}
	return n, -1
}

func runTrainUntraced(ctx context.Context, w *workload, seed int64, seconds float64, o runOpts) (*runResult, error) {
	spec := w.train
	res := newResult(w, seed, false, seconds)
	out := newMetricSet(endToEnd)

	sut, setupS, err := repeatSetup(func() (*trainSUT, error) { return setupTrain(ctx, spec, seed, o.faults) })
	if err != nil {
		return nil, err
	}
	defer sut.close()
	warm := make([][]float64, len(sut.lanes))
	for i, l := range sut.lanes {
		warm[i] = l.losses
		l.reset()
	}

	runtime.GC() // the set-ups' garbage is not the timed region's to collect
	smp := startCPUSampler()
	runLanes(ctx, sut.lanes, smp.start.Add(secondsToDur(seconds)), 0)
	marks := smp.finish()

	durs, failed := allDurations(sut.lanes)
	res.Attempted, res.Failed = len(durs)+failed, failed
	res.Op = summarize(durs)
	if len(durs) == 0 {
		return nil, fmt.Errorf("no round completed in %.1fs", seconds)
	}
	var ops []opSample
	for _, l := range sut.lanes {
		for i, end := range l.ends {
			ops = append(ops, opSample{end: end.Sub(smp.start), ms: l.durMS[i]})
		}
	}
	// One op is one lane's round: every pipeline of a single-process
	// job, one replica of a dist-mode job.
	setEndToEnd(out, res, marks, ops, spec.n*sut.task.BatchSize/len(sut.lanes), setupS)

	checkTraining(ctx, res, w, sut, seed, warm, o.faults)
	res.finish(out)
	return res, nil
}

// replayRounds is how many warm-up rounds the untraced run re-derives
// with the benchmark's own stepper as an independent check.
const replayRounds = 20

// checkTraining is the correctness side of a training run: losses are
// finite, the averaged model improved on its initial eval loss, the
// first rounds match an independent replay bit for bit, dist replicas
// hold bit-identical references, and at the default seed the loss after
// the fixed warm-up equals the committed golden value.
func checkTraining(ctx context.Context, res *runResult, w *workload, sut *trainSUT, seed int64, warm [][]float64, faults faultConfig) {
	for i, l := range sut.lanes {
		for r, v := range append(append([]float64(nil), warm[i]...), l.losses...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.problem("lane %d round %d: loss %v", i, r, v)
				break
			}
		}
	}
	first := initialEvalLoss(sut.task, seed)
	for i, tr := range sut.trainers {
		if last := trainerEvalLoss(tr); !(last < first) {
			res.problem("replica %d: eval loss %v after training is not below the initial %v", i, last, first)
		}
	}
	if len(sut.trainers) > 1 {
		ref0 := trainerReference(sut.trainers[0])
		for i, tr := range sut.trainers[1:] {
			if d := firstTensorDiff(ref0, trainerReference(tr)); d != "" {
				res.problem("replica %d reference differs from replica 0 after the last round: %s", i+1, d)
			}
		}
	}
	rep, err := setupReplay(ctx, w.train, seed, faults)
	if err != nil {
		res.problem("replay set-up: %v", err)
		return
	}
	defer rep.close()
	runLanes(ctx, rep.lanes, time.Time{}, replayRounds)
	for i, l := range rep.lanes {
		if n, diff := comparePrefix(warm[i], l.losses); n != replayRounds || diff >= 0 {
			res.problem("lane %d: replayed %d rounds, first differing loss at round %d", i, n, diff)
		}
	}
	if want, ok := golden[w.Name]; ok && seed == defaultSeed && faults == (faultConfig{}) {
		for i := range sut.lanes {
			if got := math.Float64bits(warm[i][warmupRounds-1]); i < len(want) && got != want[i] {
				res.problem("lane %d: loss after %d rounds is %#x (%v), golden %#x",
					i, warmupRounds, got, warm[i][warmupRounds-1], want[i])
			}
		}
	}
}

// layerProbeSeconds is how long a traced run spends on the layers its
// workload does not exercise: a training workload serves its model for
// this long, the serving workload trains its model for this long, so
// every per-layer time in every traced run is a measurement.
const layerProbeSeconds = 1.0

func runTrainTraced(ctx context.Context, w *workload, seed int64, seconds float64, o runOpts) (*runResult, error) {
	spec := w.train
	res := newResult(w, seed, true, seconds)
	out := newMetricSet(perLayer)
	if err := traceTraining(ctx, res, out, spec, seed, seconds, o, true); err != nil {
		return nil, err
	}
	if !o.noProbes {
		side := *workloadByName("serve-open").serve
		side.newTask, side.inputs = spec.newTask, 256
		if err := traceServing(ctx, res, out, &side, seed, layerProbeSeconds, false); err != nil {
			return nil, fmt.Errorf("serving probe: %w", err)
		}
		t := spec.newTask()
		if err := probeKernels(out, t, seed, spec.gemm, spec.m); err != nil {
			return nil, err
		}
		if err := probeWire(ctx, out, t, seed); err != nil {
			return nil, err
		}
	}
	res.finish(out)
	return res, nil
}

// traceTraining measures a training job layer by layer: a quarter of
// the time on the facade trainer, untraced, then the rest on the
// benchmark's own stepper with a span around every call, then a
// checkpoint save and restore. It fills the data, core, sched, optim,
// avg, net-counter and checkpoint metrics; when this is the run's
// primary measurement it also fills op, runtime and trace, and keeps
// the spans.
func traceTraining(ctx context.Context, res *runResult, out *metricSet, spec *trainSpec, seed int64, seconds float64, o runOpts, primary bool) error {
	ref, err := setupTrain(ctx, spec, seed, o.faults)
	if err != nil {
		return fmt.Errorf("reference set-up: %w", err)
	}
	defer ref.close()
	rep, err := setupReplay(ctx, spec, seed, o.faults)
	if err != nil {
		return fmt.Errorf("replay set-up: %w", err)
	}
	defer rep.close()
	runLanes(ctx, rep.lanes, time.Time{}, warmupRounds)
	if err := lanesErr(rep.lanes, warmupRounds); err != nil {
		return fmt.Errorf("replay warm-up: %w", err)
	}
	// Faithfulness: the stepper must be Trainer.StepContext in every
	// bit, from round 0 through the end of the shorter timed phase.
	refLoss := make([][]float64, len(ref.lanes))
	repLoss := make([][]float64, len(rep.lanes))
	for i := range ref.lanes {
		refLoss[i], repLoss[i] = ref.lanes[i].losses, rep.lanes[i].losses
		ref.lanes[i].reset()
		rep.lanes[i].reset()
	}
	for _, st := range rep.steppers {
		st.resetStats()
	}

	// Phase A: the facade trainer, untraced, a quarter of the time.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runLanes(ctx, ref.lanes, time.Now().Add(secondsToDur(seconds/4)), 0)
	runtime.ReadMemStats(&m1)
	refDurs, refFailed := allDurations(ref.lanes)
	if len(refDurs) == 0 {
		return fmt.Errorf("no untraced round completed in %.2fs", seconds/4)
	}

	// Phase B: the stepper, a span around every call, the rest.
	rec := newRecorder()
	rep.setRecorder(rec)
	bytes0, frames0 := rep.netSent()
	runtime.GC()
	runLanes(ctx, rep.lanes, time.Now().Add(secondsToDur(3*seconds/4)), 0)
	bytes1, frames1 := rep.netSent()
	repDurs, repFailed := allDurations(rep.lanes)
	if len(repDurs) == 0 {
		return fmt.Errorf("no traced round completed in %.2fs", 3*seconds/4)
	}
	spans := rec.snapshot()
	res.Attempted += len(refDurs) + len(repDurs) + refFailed + repFailed
	res.Failed += refFailed + repFailed

	for i := range ref.lanes {
		a := append(refLoss[i], ref.lanes[i].losses...)
		b := append(repLoss[i], rep.lanes[i].losses...)
		if n, diff := comparePrefix(a, b); diff >= 0 {
			res.problem("lane %d: traced stepper's loss differs from Trainer.StepContext at round %d of %d compared", i, diff, n)
		}
	}
	cov := coverage(spans, "step")
	if cov < 0.98 {
		res.problem("layer spans cover %.4f of the step's wall clock, want at least 0.98", cov)
	}

	dur := durationsByName(spans)
	rounds := float64(len(rep.lanes[0].losses))
	out.set("data.next_batch_ms", median(dur["data.next_batch"]))
	out.set("core.run_batch_ms", median(dur["core.run_batch"]))
	out.set("optim.step_ms", median(dur["optim.step"]))
	out.set("avg.submit_ms", median(dur["avg.submit"]))
	out.set("avg.wait_ms", median(dur["avg.wait"]))
	out.set("avg.dilute_ms", median(dur["avg.dilute"]))
	out.set("avg.exposed_share", unionShare(spans, "step", "avg.submit", "avg.wait", "avg.dilute"))
	busy, bubble := rep.stageStats()
	out.set("core.stage_busy_ms", busy)
	out.set("core.bubble_fraction", bubble)
	out.set("net.bytes_per_round", (bytes1-bytes0)/rounds)
	out.set("net.frames_per_round", (frames1-frames0)/rounds)
	ideal, err := idealBubbleFraction(rep.steppers[0].firstPipeline(), spec.m)
	if err != nil {
		return fmt.Errorf("schedule analysis: %w", err)
	}
	out.set("sched.ideal_bubble_fraction", ideal)
	if primary {
		res.spans = spans
		res.Op = summarize(repDurs)
		res.UntracedP50 = median(refDurs)
		setOpMetrics(out, res, cov, &m0, &m1, len(refDurs))
	}
	if o.noProbes {
		return nil
	}
	if err := probeCheckpoint(ctx, out, ref, seed); err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	return nil
}

// setOpMetrics fills what only a run's primary measurement reports: the
// op-time series, allocations per op over the untraced phase, and the
// tracing checks.
func setOpMetrics(out *metricSet, res *runResult, cov float64, m0, m1 *runtime.MemStats, untracedOps int) {
	out.set("op.ms_p50", res.Op.P50)
	out.set("op.ms_tail", res.Op.Tail)
	out.set("op.tail_percentile", res.Op.TailPct)
	out.set("op.samples", float64(res.Op.N))
	out.set("runtime.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(untracedOps))
	out.set("runtime.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(untracedOps))
	out.set("trace.coverage", cov)
	out.set("trace.overhead_share", res.Op.P50/res.UntracedP50-1)
}

func runServeUntraced(ctx context.Context, w *workload, seed int64, seconds float64) (*runResult, error) {
	spec := w.serve
	res := newResult(w, seed, false, seconds)
	out := newMetricSet(endToEnd)
	in, err := serveInputsFor(spec, seed)
	if err != nil {
		return nil, err
	}

	sut, setupS, err := repeatSetup(func() (*serveSUT, error) { return setupServe(ctx, spec, seed, in) })
	if err != nil {
		return nil, err
	}
	defer sut.close()

	keep := &sampleSet{}
	runtime.GC()
	smp := startCPUSampler()
	arrivals := sut.runLoad(seconds, sut.viaHandler(ctx, in, keep))
	marks := smp.finish()
	load := summarizeLoad(arrivals)

	res.Attempted, res.Failed = load.attempted, load.failed
	res.Op = summarize(load.latency)
	if len(load.latency) == 0 {
		return nil, fmt.Errorf("no request was answered in %.1fs", seconds)
	}
	var ops []opSample
	for _, a := range arrivals {
		if a.OK {
			ops = append(ops, opSample{end: time.Duration(a.Done), ms: a.latencyMS()})
		}
	}
	setEndToEnd(out, res, marks, ops, 1, setupS) // one request carries one sequence
	if err := sut.checkSamples(in, keep); err != nil {
		res.problem("%v", err)
	}
	res.finish(out)
	return res, nil
}

func serveInputsFor(spec *serveSpec, seed int64) (serveInputs, error) {
	probe, err := newServer(spec.newTask())
	if err != nil {
		return serveInputs{}, err
	}
	defer probe.Close()
	return genServeInputs(seed, spec.inputs, probe.SeqLen(), probe.Vocab()), nil
}

func runServeTraced(ctx context.Context, w *workload, seed int64, seconds float64, o runOpts) (*runResult, error) {
	spec := w.serve
	res := newResult(w, seed, true, seconds)
	out := newMetricSet(perLayer)
	if err := traceServing(ctx, res, out, spec, seed, seconds, true); err != nil {
		return nil, err
	}
	// The training-side layers of the model being served: gnmt-n2's job
	// (same task), briefly.
	side := workloadByName("gnmt-n2").train
	if err := traceTraining(ctx, res, out, side, seed, layerProbeSeconds, o, false); err != nil {
		return nil, fmt.Errorf("training probe: %w", err)
	}
	t := spec.newTask()
	if err := probeKernels(out, t, seed, spec.gemm, side.m); err != nil {
		return nil, err
	}
	if err := probeWire(ctx, out, t, seed); err != nil {
		return nil, err
	}
	res.finish(out)
	return res, nil
}

// traceServing measures a server layer by layer under the open-loop
// schedule: a quarter of the time exactly as the untraced run drives it
// (through the handler), half the same way with every request kept as
// spans, a quarter against Server.Predict directly, then the eval-mode
// forward on its own. It fills the serve metrics; when this is the
// run's primary measurement it also fills op, runtime and trace, and
// keeps the spans.
func traceServing(ctx context.Context, res *runResult, out *metricSet, spec *serveSpec, seed int64, seconds float64, primary bool) error {
	in, err := serveInputsFor(spec, seed)
	if err != nil {
		return err
	}
	sut, err := setupServe(ctx, spec, seed, in)
	if err != nil {
		return err
	}
	defer sut.close()
	keep := &sampleSet{}
	batches0, reqs0 := batchOccupancy(sut.srv)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := summarizeLoad(sut.runLoad(seconds/4, sut.viaHandler(ctx, in, keep)))
	runtime.ReadMemStats(&m1)
	httpArr := sut.runLoad(seconds/2, sut.viaHandler(ctx, in, keep))
	viaHTTP := summarizeLoad(httpArr)
	predArr := sut.runLoad(seconds/4, sut.viaPredict(ctx, in, keep))
	direct := summarizeLoad(predArr)
	batches1, reqs1 := batchOccupancy(sut.srv)
	if len(plain.latency) == 0 || len(viaHTTP.latency) == 0 || len(direct.latency) == 0 {
		return fmt.Errorf("a phase answered no request")
	}
	res.Attempted += plain.attempted + viaHTTP.attempted + direct.attempted
	res.Failed += plain.failed + viaHTTP.failed + direct.failed
	if err := sut.checkSamples(in, keep); err != nil {
		res.problem("%v", err)
	}

	out.set("serve.predict_ms_p50", median(direct.service))
	out.set("serve.http_share", 1-median(direct.service)/median(viaHTTP.service))
	out.set("serve.batch_mean", (reqs1-reqs0)/(batches1-batches0))
	out.set("serve.latency_ms_p99", percentile(viaHTTP.latency, 99))
	out.set("serve.lateness_ms_p99", percentile(viaHTTP.lateness, 99))
	t := spec.newTask()
	fwd, err := newInferenceForward(t.NewModel(seed), nextBatch(t.NewGen(seed), 8))
	if err != nil {
		return fmt.Errorf("inference forward probe: %w", err)
	}
	out.set("serve.forward_ms", timeOp(func() { sink += float64(fwd.run()) }))
	if primary {
		rec := newRecorder()
		requestSpans(rec, httpArr, "serve.http", 0)
		requestSpans(rec, predArr, "serve.predict", int64(viaHTTP.wall)+int64(time.Millisecond))
		res.spans = rec.snapshot()
		res.Op = summarize(viaHTTP.latency)
		res.UntracedP50 = median(plain.latency)
		setOpMetrics(out, res, coverage(res.spans, "request"), &m0, &m1, len(plain.latency))
	}
	return nil
}

// requestSpans turns open-loop arrivals into spans: a root "request"
// from due time to reply, holding "loadgen.late" (due → sent) and the
// named call span (sent → reply). shift places a later phase after an
// earlier one on the trace clock.
func requestSpans(rec *recorder, as []arrival, call string, shift int64) {
	for i, a := range as {
		if a.Refused {
			continue
		}
		root := rec.add(span{Name: "request", Parent: -1, Op: i, Lane: i % 8, Start: a.Due + shift, End: a.Done + shift})
		rec.add(span{Name: "loadgen.late", Parent: root, Op: i, Lane: i % 8, Start: a.Due + shift, End: a.Sent + shift})
		rec.add(span{Name: call, Parent: root, Op: i, Lane: i % 8, Start: a.Sent + shift, End: a.Done + shift})
	}
}
