package pipesim

import (
	"math"
	"testing"

	"avgpipe/internal/sched"
)

func chimeraFixture(actKB int64) ChimeraConfig {
	w := testWorkload(4, 8, actKB)
	// Chimera's payoff needs unsaturated kernels (the co-running
	// direction raises arithmetic intensity, like AvgPipe's N=2).
	w.SatSamples = 4
	c := testCluster(4, slowLink())
	c.SetSatSamples(4)
	return ChimeraConfig{Base: Config{
		Workload: w, Cluster: c, Stages: evenStages(w, 4),
		Micro: 4, Pipelines: 1, Batches: 2,
	}}
}

func TestChimeraRuns(t *testing.T) {
	r, err := RunChimera(chimeraFixture(64))
	if err != nil {
		t.Fatal(err)
	}
	if r.BatchTime <= 0 {
		t.Fatal("no time")
	}
	// Time conservation per GPU.
	for g, st := range r.PerGPU {
		total := st.Busy + st.Bubble + st.CommBlocked
		if math.Abs(total-r.Makespan) > 1e-9 {
			t.Fatalf("GPU %d: accounting %v != makespan %v", g, total, r.Makespan)
		}
	}
}

func TestChimeraBeats1F1BWithEnoughMicros(t *testing.T) {
	// Chimera's raison d'être: the up pipeline's work fills the down
	// pipeline's bubbles — once each direction carries at least K
	// micro-batches. Below that, the bidirectional ramp dominates and
	// plain 1F1B wins; both regimes must appear.
	compare := func(m int) (ofob, chimera float64) {
		cfg := chimeraFixture(64)
		cfg.Base.Micro = m
		ch, err := RunChimera(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := cfg.Base
		base.Schedule = sched.OneFOneB(4, m, base.Batches)
		of, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		return of.BatchTime, ch.BatchTime
	}
	if of, ch := compare(8); ch >= of {
		t.Fatalf("M=8: chimera should beat 1F1B (%v vs %v)", ch, of)
	}
	if of, ch := compare(4); ch <= of {
		t.Fatalf("M=4: shallow chimera should lose its ramp (%v vs %v)", ch, of)
	}
}

func TestChimeraMemoryTwoReplicas(t *testing.T) {
	cfg := chimeraFixture(64)
	ch, err := RunChimera(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every GPU holds two stage replicas: weights are the sum of its down
	// and up stages' params.
	for g, st := range ch.PerGPU {
		want := cfg.Base.Stages[g].ParamBytes + cfg.Base.Stages[len(cfg.Base.Stages)-1-g].ParamBytes
		if st.Memory.Weights != want {
			t.Fatalf("GPU %d weights %d, want %d", g, st.Memory.Weights, want)
		}
	}
}

func TestChimeraValidation(t *testing.T) {
	cfg := chimeraFixture(64)
	cfg.Base.Micro = 3 // odd
	cfg.Base.Workload.BatchSize = 9
	if _, err := RunChimera(cfg); err == nil {
		t.Fatal("expected error for odd micro count")
	}
	cfg = chimeraFixture(64)
	cfg.Base.Stages = cfg.Base.Stages[:2]
	if _, err := RunChimera(cfg); err == nil {
		t.Fatal("expected error for stage/GPU mismatch")
	}
}

func TestChimeraDeterministic(t *testing.T) {
	a, err := RunChimera(chimeraFixture(192))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChimera(chimeraFixture(192))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatal("nondeterministic")
	}
}

func TestRecomputeTradesTimeForMemory(t *testing.T) {
	w := testWorkload(4, 8, 256)
	c := testCluster(4, fastLink())
	base := Config{Workload: w, Cluster: c, Stages: evenStages(w, 4),
		Micro: 8, Pipelines: 1, Schedule: sched.AFAB(4, 8, 1), Batches: 1}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	re := base
	re.Recompute = true
	recomputed, err := Run(re)
	if err != nil {
		t.Fatal(err)
	}
	if recomputed.Makespan <= plain.Makespan {
		t.Fatal("recomputation must cost time")
	}
	if recomputed.PeakMemory() >= plain.PeakMemory() {
		t.Fatalf("recomputation must save memory: %d vs %d", recomputed.PeakMemory(), plain.PeakMemory())
	}
	// Activation stash must shrink to the boundary size.
	for s, g := range recomputed.PerGPU {
		want := w.MakeStage(s, s).OutActBytes // evenStages is 1 layer/stage
		_ = want
		if g.Memory.Activations >= plain.PerGPU[s].Memory.Activations {
			t.Fatalf("stage %d: recompute stash not smaller", s)
		}
	}
}

// TestChimeraPricesEachOpWhereItRuns runs Chimera where stages differ
// in output size and FLOPs and GPUs differ in speed. Every op must be
// timed on the GPU that runs it, and every transfer priced by the stage
// whose output (or its gradient) crosses the link: GPU g hosts stage g
// of the down pipeline and stage K−1−g of the up one.
func TestChimeraPricesEachOpWhereItRuns(t *testing.T) {
	const k, micro, batches = 4, 4, 2
	w := testWorkload(k, 8, 64)
	for i := range w.Layers {
		w.Layers[i].OutActBytes = int64(16<<i) << 10
		w.Layers[i].FwdFLOPs *= float64(i + 1)
	}
	c := testCluster(k, slowLink())
	for g := range c.GPUs {
		c.GPUs[g].PeakFLOPs *= float64(g + 1)
	}
	cfg := ChimeraConfig{Base: Config{Workload: w, Cluster: c, Stages: evenStages(w, k),
		Micro: micro, Pipelines: 1, Batches: batches}}
	r, err := RunChimera(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := int64(w.BatchSize / micro)
	perDir := float64(micro / 2 * batches)
	out := func(s int) int64 { return cfg.Base.Stages[s].OutActBytes * b }
	xfer := func(l int, bytes int64) float64 { return c.Link(l).TransferTime(bytes).Seconds() }
	for g, st := range r.PerGPU {
		u := k - 1 - g
		var busy, comm float64
		for _, s := range []int{g, u} {
			stage := cfg.Base.Stages[s]
			busy += (stage.FwdFLOPs + stage.BwdFLOPs) * float64(b) / c.GPUs[g].PeakFLOPs
		}
		if g > 0 { // down activation of stage g−1, up gradient of stage u
			comm += xfer(g-1, out(g-1)) + xfer(g-1, out(u))
		}
		if g < k-1 { // down gradient of stage g, up activation of stage u−1
			comm += xfer(g, out(g)) + xfer(g, out(u-1))
		}
		busy, comm = busy*perDir, comm*perDir
		if math.Abs(st.Busy-busy) > 1e-12*busy {
			t.Errorf("GPU %d busy %v, want %v", g, st.Busy, busy)
		}
		if math.Abs(st.CommTotal-comm) > 1e-12*comm {
			t.Errorf("GPU %d receives %v of transfers, want %v", g, st.CommTotal, comm)
		}
	}
}
