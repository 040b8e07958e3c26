package exp

import (
	"fmt"

	"avgpipe/internal/core"
	"avgpipe/internal/pipesim"
	"avgpipe/internal/sched"
	"avgpipe/internal/workload"
)

// The ablations probe the design choices DESIGN.md calls out, beyond the
// paper's own figures: the elastic coefficient α, synchronous versus
// asynchronous dilution, fixed versus adaptive advance, activation
// recomputation, kernel-saturation sensitivity, and the Chimera
// bidirectional alternative.

// AblationAlpha trains the translation task with several elastic
// coefficients and reports eval loss after a fixed budget. The paper sets
// α = 1/N "empirically" (§3.2); this shows how flat that choice is.
func AblationAlpha() *Table {
	task := workload.TranslationTask()
	t := &Table{
		Title:  "Ablation: elastic coefficient α (translation, N=2, 150 rounds)",
		Header: []string{"alpha", "loss", "acc"},
	}
	for _, alpha := range []float64{0.5, 0.25, 0.1, 0.05} {
		tr, err := core.NewTrainer(core.TrainerConfig{
			Task: task, Pipelines: 2, Micro: 2, StageCount: 2,
			Seed: 11, ClipNorm: 5, Alpha: alpha,
		})
		if err != nil {
			panic(err)
		}
		for r := 0; r < 150; r++ {
			tr.Step()
		}
		loss, acc := tr.Eval()
		tr.Close()
		label := fmt.Sprintf("%.2f", alpha)
		if alpha == 0.5 {
			label += " (=1/N)"
		}
		t.AddRow(label, f3(loss), f3(acc))
	}
	return t
}

// AblationSyncAsync compares synchronous elastic rounds against the fully
// asynchronous dilution (§3.2's never-blocking mode) on the
// classification task.
func AblationSyncAsync() *Table {
	task := workload.ClassificationTask()
	t := &Table{
		Title:  "Ablation: synchronous vs asynchronous dilution (classification, N=2, 120 rounds)",
		Header: []string{"mode", "loss", "acc"},
	}
	for _, async := range []bool{false, true} {
		tr, err := core.NewTrainer(core.TrainerConfig{
			Task: task, Pipelines: 2, Micro: 2, StageCount: 2,
			Seed: 11, ClipNorm: 5, AsyncDilute: async,
		})
		if err != nil {
			panic(err)
		}
		for r := 0; r < 120; r++ {
			tr.Step()
		}
		loss, acc := tr.Eval()
		tr.Close()
		mode := "synchronous round"
		if async {
			mode = "async (stale dilution)"
		}
		t.AddRow(mode, f3(loss), f3(acc))
	}
	t.Remarks = append(t.Remarks,
		"async dilution never blocks a pipeline but pulls replicas toward a one-round-stale reference")
	return t
}

// AblationAdvance compares fixed advance levels against Algorithm 1's
// adaptive decision on GNMT.
func AblationAdvance() *Table {
	s := NewSetup(gnmt())
	k := s.C.Size()
	m := 128
	t := &Table{
		Title:  fmt.Sprintf("Ablation: advance forward propagation levels — GNMT (M=%d, N=1)", m),
		Header: []string{"advance", "s/batch", "peak mem (GB)"},
	}
	sim := func(adv []int) *pipesim.Result {
		r, err := pipesim.Run(pipesim.Config{
			Workload: s.W, Cluster: s.C, Stages: s.Stages,
			Micro: m, Pipelines: 1, Schedule: sched.AFP(k, m, 2, adv), Batches: 2,
		})
		if err != nil {
			panic(err)
		}
		return r
	}
	uniform := func(a int) []int {
		v := make([]int, k)
		for i := range v {
			v[i] = a
		}
		return v
	}
	taper := func(t0 int) []int {
		v := make([]int, k)
		for i := range v {
			v[i] = t0 * (k - 1 - i)
		}
		return v
	}
	for _, c := range []struct {
		name string
		adv  []int
	}{
		{"0 (=1F1B)", uniform(0)},
		{"uniform 4", uniform(4)},
		{"taper x1", taper(1)},
		{"taper x2", taper(2)},
		{"max (=AFAB)", uniform(m)},
	} {
		r := sim(c.adv)
		t.AddRow(c.name, f3(r.BatchTime), f2(GB(r.PeakMemory())))
	}
	adv, best, err := core.DecideAdvance(core.AFPConfig{
		Workload: s.W, Cluster: s.C, Stages: s.Stages, Micro: m, Pipes: 1, Batches: 2,
	})
	if err != nil {
		panic(err)
	}
	t.AddRow(fmt.Sprintf("Algorithm 1 %v", adv), f3(best.BatchTime), f2(GB(best.PeakMemory())))
	return t
}

// AblationRecompute measures GPipe-style activation recomputation (which
// the paper's experiments disable) on BERT.
func AblationRecompute() *Table {
	s := NewSetup(bert())
	k := s.C.Size()
	m := 16
	t := &Table{
		Title:  fmt.Sprintf("Ablation: activation recomputation — BERT (AFAB, M=%d)", m),
		Header: []string{"mode", "s/batch", "peak mem (GB)"},
	}
	for _, re := range []bool{false, true} {
		r, err := pipesim.Run(pipesim.Config{
			Workload: s.W, Cluster: s.C, Stages: s.Stages,
			Micro: m, Pipelines: 1, Schedule: sched.AFAB(k, m, 2), Batches: 2,
			Recompute: re,
		})
		if err != nil {
			panic(err)
		}
		mode := "stash everything"
		if re {
			mode = "recompute"
		}
		t.AddRow(mode, f3(r.BatchTime), f2(GB(r.PeakMemory())))
	}
	t.Remarks = append(t.Remarks, "recomputation trades a replayed forward pass for a boundary-only stash")
	return t
}

// AblationChimera compares the bidirectional alternative against 1F1B,
// AFP, and AvgPipe's N=2 pipelines on a workload.
func AblationChimera(w *workload.Workload) *Table {
	s := NewSetup(w)
	k := s.C.Size()
	m := w.BatchSize / 4
	if m%2 != 0 {
		m++
	}
	t := &Table{
		Title:  fmt.Sprintf("Extension: Chimera vs AvgPipe — %s (M=%d)", w.Name, m),
		Header: []string{"system", "s/data-batch", "peak mem (GB)"},
	}
	base := pipesim.Config{Workload: s.W, Cluster: s.C, Stages: s.Stages,
		Micro: m, Pipelines: 1, Batches: 2}

	ofob := base
	ofob.Schedule = sched.OneFOneB(k, m, 2)
	r, err := pipesim.Run(ofob)
	if err != nil {
		panic(err)
	}
	t.AddRow("1F1B", f3(r.BatchTime), f2(GB(r.PeakMemory())))

	_, afp, err := core.DecideAdvance(core.AFPConfig{
		Workload: s.W, Cluster: s.C, Stages: s.Stages, Micro: m, Pipes: 1, Batches: 2,
	})
	if err != nil {
		panic(err)
	}
	t.AddRow("1F1B+AFP", f3(afp.BatchTime), f2(GB(afp.PeakMemory())))

	ch, err := pipesim.RunChimera(pipesim.ChimeraConfig{Base: base})
	if err != nil {
		panic(err)
	}
	t.AddRow("Chimera (bidirectional)", f3(ch.BatchTime), f2(GB(ch.PeakMemory())))

	_, avg, err := core.DecideAdvance(core.AFPConfig{
		Workload: s.W, Cluster: s.C, Stages: s.Stages, Micro: m, Pipes: 2,
		Batches: 2, RefModel: true,
	})
	if err != nil {
		panic(err)
	}
	t.AddRow("AvgPipe (N=2)", f3(avg.BatchTime/2), f2(GB(avg.PeakMemory())))
	t.Remarks = append(t.Remarks,
		"Chimera fills bubbles with a reverse pipeline (2 stage replicas/GPU); AvgPipe fills them with a second elastic pipeline and amortizes over 2 data batches")
	return t
}

// AblationSaturation sweeps the kernel half-saturation point and reports
// AvgPipe's speedup over GPipe on GNMT — the sensitivity of the headline
// result to device calibration.
func AblationSaturation() *Table {
	t := &Table{
		Title:  "Ablation: kernel saturation sensitivity — GNMT (AvgPipe vs GPipe)",
		Header: []string{"sat (samples)", "GPipe s/batch", "AvgPipe s/batch", "speedup"},
	}
	for _, sat := range []float64{4, 8, 16, 32} {
		w := gnmt()
		w.SatSamples = sat
		s := NewSetup(w)
		gp := s.EvalGPipe()
		ap := s.EvalAvgPipe(gp.PeakMemPerGPU)
		t.AddRow(fmt.Sprintf("%.0f", sat), f3(gp.TimePerDataBatch), f3(ap.TimePerDataBatch),
			fmt.Sprintf("%.2fx", gp.TimePerDataBatch/ap.TimePerDataBatch))
	}
	t.Remarks = append(t.Remarks,
		"higher saturation points leave kernels hungrier, widening AvgPipe's parallel-pipeline advantage")
	return t
}
