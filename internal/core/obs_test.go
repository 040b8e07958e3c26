package core

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"avgpipe/internal/obs"
	"avgpipe/internal/pipesim"
	"avgpipe/internal/sched"
	"avgpipe/internal/workload"
)

// TestObsCrossValidatesScheduleAnalysis is the obs acceptance check:
// the per-stage op counters the runtime records while executing a batch
// must equal sched.Analyze's analytic occupancy for the same schedule,
// and the simulator's RecordDrift against those measured values must be
// zero — one more triangle leg on top of crossval_test.go, this time
// through the metrics registry instead of StageMetrics.
func TestObsCrossValidatesScheduleAnalysis(t *testing.T) {
	task := workload.TranslationTask()
	const k, m = 2, 8
	batch := task.NewGen(17).NextBatch(16)
	w, c, simStages := simFixture(k, m)

	for _, s := range crossValSchedules(k, m) {
		an, err := sched.Analyze(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		reg := obs.NewRegistry()
		pl, err := NewPipelineFromSchedule(task.NewModel(9), s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		pl.SetObs(reg)
		runBatch(t, pl, batch, m)

		var fwd, bwd, peak []int
		var totalOps int
		for st := 0; st < k; st++ {
			label := strconv.Itoa(st)
			f := int(reg.Counter("avgpipe_stage_fwd_ops_total", "", "stage", label).Value())
			b := int(reg.Counter("avgpipe_stage_bwd_ops_total", "", "stage", label).Value())
			p := int(reg.Gauge("avgpipe_stage_peak_inflight", "", "stage", label).Value())
			if f != an.Fwd[st] || b != an.Bwd[st] {
				t.Errorf("%s stage %d: obs %dF %dB, analysis %dF %dB",
					s.Name, st, f, b, an.Fwd[st], an.Bwd[st])
			}
			if p != an.MaxInFlight[st] {
				t.Errorf("%s stage %d: obs peak in-flight %d, analysis %d",
					s.Name, st, p, an.MaxInFlight[st])
			}
			bubble := reg.Gauge("avgpipe_stage_bubble_fraction", "", "stage", label).Value()
			if bubble < 0 || bubble > 1 {
				t.Errorf("%s stage %d: bubble fraction %v outside [0,1]", s.Name, st, bubble)
			}
			fwd, bwd, peak = append(fwd, f), append(bwd, b), append(peak, p)
			totalOps += f + b
		}
		if totalOps != an.TotalOps() {
			t.Errorf("%s: obs total ops %d, analysis %d", s.Name, totalOps, an.TotalOps())
		}
		if got := reg.Counter("avgpipe_batches_total", "").Value(); got != 1 {
			t.Errorf("%s: batches counter %v, want 1", s.Name, got)
		}
		if got := reg.Histogram("avgpipe_batch_seconds", "", nil).Count(); got != 1 {
			t.Errorf("%s: batch histogram count %v, want 1", s.Name, got)
		}

		// Simulate the same schedule and cross-check it against the
		// obs-measured occupancy: zero drift.
		r, err := pipesim.Run(pipesim.Config{
			Workload: w, Cluster: c, Stages: simStages,
			Micro: m, Pipelines: 1, Schedule: s, Batches: 1, Obs: reg,
		})
		if err != nil {
			t.Fatalf("%s sim: %v", s.Name, err)
		}
		if drift := r.RecordDrift(reg, fwd, bwd, peak); drift != 0 {
			t.Errorf("%s: sim-vs-runtime drift %d, want 0", s.Name, drift)
		}
		for _, dim := range []string{"fwd", "bwd", "peak_inflight"} {
			if got := reg.Counter("avgpipe_sim_runtime_drift_total", "", "dim", dim).Value(); got != 0 {
				t.Errorf("%s: drift counter %s = %v, want 0", s.Name, dim, got)
			}
		}
		if got := reg.Counter("avgpipe_sim_runs_total", "").Value(); got != 1 {
			t.Errorf("%s: sim runs counter %v, want 1", s.Name, got)
		}
		// And RecordDrift must notice a genuinely wrong measurement.
		wrong := append([]int(nil), fwd...)
		wrong[0]++
		if drift := r.RecordDrift(obs.NewRegistry(), wrong, bwd, peak); drift != 1 {
			t.Errorf("%s: perturbed drift %d, want 1", s.Name, drift)
		}
	}
}

// TestWriteTraceWithoutTrace pins the error-path satellite: exporting a
// trace from a pipeline that never recorded one must fail loudly, not
// write a misleading empty file.
func TestWriteTraceWithoutTrace(t *testing.T) {
	task := workload.TranslationTask()
	pl, err := NewPipelineWith(task.NewModel(2), PipelineConfig{Stages: 2, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	runBatch(t, pl, task.NewGen(5).NextBatch(8), 4)
	var buf bytes.Buffer
	if err := pl.WriteTrace(&buf); err != ErrNoTrace {
		t.Fatalf("WriteTrace without Trace = %v, want ErrNoTrace", err)
	}
	if buf.Len() != 0 {
		t.Fatal("failed WriteTrace still wrote output")
	}
	if _, err := pl.Tracer(); err != ErrNoTrace {
		t.Fatal("Tracer without Trace must return ErrNoTrace")
	}
}

// TestTrainerObsAndStepLog drives a short real training run and checks
// the trainer-level telemetry: throughput counters, the averaging-round
// metrics, the instrumented averager queue, and the JSONL step log.
func TestTrainerObsAndStepLog(t *testing.T) {
	reg := obs.NewRegistry()
	task := workload.TranslationTask()
	const n, rounds = 2, 3
	tr, err := NewTrainer(TrainerConfig{
		Task: task, Pipelines: n, Micro: 2, StageCount: 2, Seed: 1, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var log bytes.Buffer
	tr.SetStepLog(&log)
	for i := 0; i < rounds; i++ {
		tr.Step()
	}
	drain(t, tr.Averager())

	wantSamples := float64(rounds * n * task.BatchSize)
	if got := reg.Counter("avgpipe_train_samples_total", "").Value(); got != wantSamples {
		t.Errorf("samples counter %v, want %v", got, wantSamples)
	}
	if got := reg.Histogram("avgpipe_train_step_seconds", "", nil).Count(); got != rounds {
		t.Errorf("step histogram count %v, want %d", got, rounds)
	}
	if got := reg.Counter("avgpipe_avg_updates_total", "").Value(); got != rounds*n {
		t.Errorf("averager updates %v, want %d", got, rounds*n)
	}
	if got := reg.Histogram("avgpipe_avg_round_seconds", "", nil).Count(); got != rounds {
		t.Errorf("averaging rounds observed %v, want %d", got, rounds)
	}
	if got := reg.Counter("avgpipe_queue_sends_total", "", "queue", "averager").Value(); got != rounds*n {
		t.Errorf("averager queue sends %v, want %d", got, rounds*n)
	}
	if got := reg.Gauge("avgpipe_avg_open_rounds", "").Value(); got != 0 {
		t.Errorf("open rounds after drain %v, want 0", got)
	}

	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != rounds {
		t.Fatalf("step log has %d lines, want %d", len(lines), rounds)
	}
	for i, ln := range lines {
		var rec StepRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("step log line %d: %v", i, err)
		}
		if rec.Round != i {
			t.Errorf("line %d: round %d", i, rec.Round)
		}
		if rec.Samples != n*task.BatchSize {
			t.Errorf("line %d: samples %d, want %d", i, rec.Samples, n*task.BatchSize)
		}
		if rec.StepSeconds <= 0 || rec.SamplesPerS <= 0 {
			t.Errorf("line %d: non-positive timing %+v", i, rec)
		}
		if rec.Loss == 0 {
			t.Errorf("line %d: zero loss", i)
		}
	}
}

// benchRunBatch measures the pipelined runtime with a given registry —
// the live-vs-discard pair quantifies instrumentation overhead, recorded
// in BENCH_obs.json (must stay under 3%).
func benchRunBatch(b *testing.B, reg *obs.Registry) {
	task := workload.TranslationTask()
	pl, err := NewPipelineWith(task.NewModel(2), PipelineConfig{Stages: 2, Obs: reg})
	if err != nil {
		b.Fatal(err)
	}
	batch := task.NewGen(3).NextBatch(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch(b, pl, batch, 4)
	}
}

func BenchmarkRunBatchObsLive(b *testing.B)    { benchRunBatch(b, obs.NewRegistry()) }
func BenchmarkRunBatchObsDiscard(b *testing.B) { benchRunBatch(b, obs.Discard()) }

// TestSimulatorTracerSharedEnvelope checks that pipesim's trace export
// rides the same obs.Tracer as the runtime: same envelope keys, same
// event shape, source recorded in otherData.
func TestSimulatorTracerSharedEnvelope(t *testing.T) {
	const k, m = 2, 4
	w, c, stages := simFixture(k, m)
	r, err := pipesim.Run(pipesim.Config{
		Workload: w, Cluster: c, Stages: stages,
		Micro: m, Pipelines: 1, Schedule: sched.OneFOneB(k, m, 1), Batches: 1,
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("sim trace not valid JSON: %v", err)
	}
	if doc.OtherData["source"] != "pipesim.Result" {
		t.Fatalf("otherData %v", doc.OtherData)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("sim trace has no spans")
	}
}
