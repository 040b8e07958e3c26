package pipesim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"avgpipe/internal/cluster"
	"avgpipe/internal/comm"
	"avgpipe/internal/device"
	"avgpipe/internal/obs"
	"avgpipe/internal/sched"
	"avgpipe/internal/workload"
)

// testWorkload builds a uniform synthetic workload: `layers` identical
// layers of 1 GFLOP forward (2 backward) per sample, 4 MB params, actKB
// of boundary activation per sample.
func testWorkload(layers, batch int, actKB int64) *workload.Workload {
	ls := make([]workload.LayerCost, layers)
	for i := range ls {
		ls[i] = workload.LayerCost{
			Name: "l", FwdFLOPs: 1e9, BwdFLOPs: 2e9,
			ParamBytes: 4 << 20, OutActBytes: actKB << 10, StashBytes: 2 * actKB << 10,
		}
	}
	return &workload.Workload{
		Name: "synthetic", Layers: ls, BatchSize: batch,
		SatSamples: 0, OptimStateFactor: 1, MaxPipelines: 4,
	}
}

// evenStages splits the workload's layers into k equal stages.
func evenStages(w *workload.Workload, k int) []workload.Stage {
	per := len(w.Layers) / k
	stages := make([]workload.Stage, k)
	for s := 0; s < k; s++ {
		last := (s+1)*per - 1
		if s == k-1 {
			last = len(w.Layers) - 1
		}
		stages[s] = w.MakeStage(s*per, last)
	}
	return stages
}

func testCluster(k int, link comm.Link) *cluster.Cluster {
	gpu := device.GPU{Name: "test", PeakFLOPs: 1e12, SatSamples: 0, MemBytes: 32 << 30}
	return cluster.New(1, k, gpu, link, link)
}

func fastLink() comm.Link { return comm.Link{Name: "fast", Latency: 0, BytesPerSec: 1e15} }
func slowLink() comm.Link {
	return comm.Link{Name: "slow", Latency: 0, BytesPerSec: 125e6}
}

func run(t *testing.T, w *workload.Workload, c *cluster.Cluster, s *sched.Schedule, micro, pipes, batches int) *Result {
	t.Helper()
	r, err := Run(Config{
		Workload: w, Cluster: c, Stages: evenStages(w, c.Size()),
		Micro: micro, Pipelines: pipes, Schedule: s, Batches: batches,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSingleStageClosedForm(t *testing.T) {
	w := testWorkload(1, 8, 64)
	c := testCluster(1, fastLink())
	m := 4
	r := run(t, w, c, sched.AFAB(1, m, 1), m, 1, 1)
	// Each micro: 2 samples × 1 GFLOP / 1 TFLOP = 2 ms fwd, 4 ms bwd.
	want := float64(m) * (0.002 + 0.004)
	if math.Abs(r.Makespan-want) > 1e-9 {
		t.Fatalf("makespan %v, want %v", r.Makespan, want)
	}
	g := r.PerGPU[0]
	if math.Abs(g.Busy-want) > 1e-9 || g.Bubble > 1e-9 || g.CommBlocked != 0 {
		t.Fatalf("single stage must be 100%% busy: %+v", g)
	}
}

func TestTimeConservation(t *testing.T) {
	w := testWorkload(4, 8, 512)
	c := testCluster(4, slowLink())
	for _, s := range []*sched.Schedule{
		sched.AFAB(4, 4, 2), sched.OneFOneB(4, 4, 2),
		sched.AFP(4, 4, 2, []int{2, 1, 1, 0}), sched.PipeDream(4, 4, 2),
	} {
		r := run(t, w, c, s, 4, 1, 2)
		for k, g := range r.PerGPU {
			total := g.Busy + g.Bubble + g.CommBlocked
			if math.Abs(total-r.Makespan) > 1e-9 {
				t.Fatalf("%s GPU %d: busy+idle=%v != makespan %v", s.Name, k, total, r.Makespan)
			}
		}
	}
}

func TestFastLinksMake1F1BMatchAFAB(t *testing.T) {
	// §4.2: with negligible communication, advance_num can stay 0 — 1F1B
	// loses nothing against AFAB.
	w := testWorkload(4, 8, 64)
	c := testCluster(4, fastLink())
	m := 8
	afab := run(t, w, c, sched.AFAB(4, m, 1), m, 1, 1)
	ofob := run(t, w, c, sched.OneFOneB(4, m, 1), m, 1, 1)
	if rel := (ofob.Makespan - afab.Makespan) / afab.Makespan; rel > 0.01 {
		t.Fatalf("with fast links 1F1B should match AFAB: %v vs %v", ofob.Makespan, afab.Makespan)
	}
}

func TestSlowLinksExposeOneFOneB(t *testing.T) {
	// §4.1: with non-trivial transfer times (≈ half the per-micro
	// compute), AFAB overlaps communication while 1F1B's strict
	// alternation exposes a round trip per micro-batch. (When links are
	// so slow the pipeline becomes bandwidth-bound, full-duplex overlap
	// lets 1F1B catch back up; the paper's testbed sits in the moderate
	// regime.)
	w := testWorkload(4, 8, 192)
	c := testCluster(4, slowLink())
	m := 8
	afab := run(t, w, c, sched.AFAB(4, m, 1), m, 1, 1)
	ofob := run(t, w, c, sched.OneFOneB(4, m, 1), m, 1, 1)
	if ofob.Makespan <= afab.Makespan*1.05 {
		t.Fatalf("slow links should hurt 1F1B: AFAB %v, 1F1B %v", afab.Makespan, ofob.Makespan)
	}
	// The damage must show up as communication-blocked time.
	last := ofob.PerGPU[3]
	if last.CommBlocked <= afab.PerGPU[3].CommBlocked {
		t.Fatalf("1F1B should be comm-blocked more: %v vs %v", last.CommBlocked, afab.PerGPU[3].CommBlocked)
	}
}

func TestAFPRecoversAFABTime(t *testing.T) {
	// §4.2: advance forward propagation approaches AFAB's time with less
	// than AFAB's memory.
	w := testWorkload(4, 8, 192)
	c := testCluster(4, slowLink())
	m := 8
	afab := run(t, w, c, sched.AFAB(4, m, 1), m, 1, 1)
	ofob := run(t, w, c, sched.OneFOneB(4, m, 1), m, 1, 1)
	afp := run(t, w, c, sched.AFP(4, m, 1, []int{3, 2, 1, 0}), m, 1, 1)
	if afp.Makespan >= ofob.Makespan {
		t.Fatalf("AFP should beat 1F1B: %v vs %v", afp.Makespan, ofob.Makespan)
	}
	if afp.Makespan > afab.Makespan*1.15 {
		t.Fatalf("AFP should approach AFAB: %v vs %v", afp.Makespan, afab.Makespan)
	}
	if afp.PeakMemory() >= afab.PeakMemory() {
		t.Fatalf("AFP must use less memory than AFAB: %d vs %d", afp.PeakMemory(), afab.PeakMemory())
	}
	if afp.PeakMemory() <= ofob.PeakMemory() {
		t.Fatalf("AFP uses more memory than 1F1B: %d vs %d", afp.PeakMemory(), ofob.PeakMemory())
	}
}

func TestMemoryAccounting(t *testing.T) {
	w := testWorkload(4, 8, 1024)
	c := testCluster(4, fastLink())
	m := 4
	afab := run(t, w, c, sched.AFAB(4, m, 1), m, 1, 1)
	ofob := run(t, w, c, sched.OneFOneB(4, m, 1), m, 1, 1)
	// AFAB stashes M micros on every stage; 1F1B stashes K−s.
	b := int64(2) // samples per micro
	stash := int64(2*1024) << 10
	for s := 0; s < 4; s++ {
		wantA := stash * b * int64(m)
		if got := afab.PerGPU[s].Memory.Activations; got != wantA {
			t.Fatalf("AFAB stage %d activations %d, want %d", s, got, wantA)
		}
		wantO := stash * b * int64(4-s)
		if got := ofob.PerGPU[s].Memory.Activations; got != wantO {
			t.Fatalf("1F1B stage %d activations %d, want %d", s, got, wantO)
		}
	}
	// Downstream stages save the most under 1F1B (Fig. 17c shape).
	saved0 := afab.PerGPU[0].Memory.Total() - ofob.PerGPU[0].Memory.Total()
	saved3 := afab.PerGPU[3].Memory.Total() - ofob.PerGPU[3].Memory.Total()
	if saved3 <= saved0 {
		t.Fatalf("1F1B should save most on the last stage: %d vs %d", saved3, saved0)
	}
}

func TestPipeDreamVersionMemoryAndOOM(t *testing.T) {
	w := testWorkload(4, 8, 64)
	c := testCluster(4, fastLink())
	m := 4
	pd := run(t, w, c, sched.PipeDream(4, m, 2), m, 1, 2)
	ofob := run(t, w, c, sched.OneFOneB(4, m, 1), m, 1, 1)
	// Stage 0 keeps K=4 weight versions.
	if pd.PerGPU[0].Memory.Weights != 4*ofob.PerGPU[0].Memory.Weights {
		t.Fatalf("PipeDream stage 0 weights %d, want 4x %d",
			pd.PerGPU[0].Memory.Weights, ofob.PerGPU[0].Memory.Weights)
	}
	if pd.OOM != nil {
		t.Fatalf("unexpected OOM: %v", pd.OOM)
	}
	// Shrink capacity below the multi-version footprint: OOM must fire.
	tiny := testCluster(4, fastLink()).SetMemBytes(pd.PerGPU[0].Memory.Total() - 1)
	r, err := Run(Config{Workload: w, Cluster: tiny, Stages: evenStages(w, 4),
		Micro: m, Pipelines: 1, Schedule: sched.PipeDream(4, m, 2), Batches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM == nil {
		t.Fatal("expected OOM")
	}
	if !strings.Contains(r.OOM.Error(), "out of memory") {
		t.Fatalf("OOM error text: %v", r.OOM)
	}
}

func TestParallelPipelinesRaiseUtilization(t *testing.T) {
	w := testWorkload(4, 8, 64)
	w.SatSamples = 8 // unsaturated kernels
	c := testCluster(4, fastLink())
	m := 4
	r1 := run(t, w, c, sched.AFAB(4, m, 1), m, 1, 1)
	r3 := run(t, w, c, sched.AFAB(4, m, 1), m, 3, 1)
	if r3.PerGPU[0].PeakUtil <= r1.PerGPU[0].PeakUtil {
		t.Fatalf("more pipelines must raise peak utilization: %v vs %v",
			r3.PerGPU[0].PeakUtil, r1.PerGPU[0].PeakUtil)
	}
	// And pipelines share the device: per-pipeline batch time grows less
	// than proportionally (that is the whole point of elastic averaging).
	if r3.BatchTime >= 3*r1.BatchTime {
		t.Fatalf("3 pipelines must cost less than 3x: %v vs 3x %v", r3.BatchTime, r1.BatchTime)
	}
	// Memory scales with N.
	if r3.PerGPU[0].Memory.Weights != 3*r1.PerGPU[0].Memory.Weights {
		t.Fatal("replica weights must scale with N")
	}
}

func TestRefModelMemory(t *testing.T) {
	w := testWorkload(4, 8, 64)
	c := testCluster(4, fastLink())
	m := 4
	st := evenStages(w, 4)
	base, err := Run(Config{Workload: w, Cluster: c, Stages: st, Micro: m,
		Pipelines: 2, Schedule: sched.AFAB(4, m, 1), Batches: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(Config{Workload: w, Cluster: c, Stages: st, Micro: m,
		Pipelines: 2, Schedule: sched.AFAB(4, m, 1), Batches: 1, RefModel: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.PerGPU[0].Memory.Weights-base.PerGPU[0].Memory.Weights != st[0].ParamBytes {
		t.Fatal("reference model must add exactly one co-partitioned copy")
	}
}

func TestMoreMicroBatchesShrinkBubbles(t *testing.T) {
	// §2: more micro-batches reduce the bubble fraction under AFAB with
	// saturated kernels.
	w := testWorkload(4, 64, 64)
	c := testCluster(4, fastLink())
	r4 := run(t, w, c, sched.AFAB(4, 4, 1), 4, 1, 1)
	r16 := run(t, w, c, sched.AFAB(4, 16, 1), 16, 1, 1)
	bubbleFrac := func(r *Result) float64 {
		return r.PerGPU[0].Bubble / r.Makespan
	}
	if bubbleFrac(r16) >= bubbleFrac(r4) {
		t.Fatalf("more micros must shrink bubbles: %v vs %v", bubbleFrac(r16), bubbleFrac(r4))
	}
}

func TestDataParallelSlowOnEthernet(t *testing.T) {
	w := testWorkload(6, 12, 64)
	slow := testCluster(6, slowLink())
	dp := DataParallel(w, slow)
	pp := run(t, w, slow, sched.AFAB(6, 4, 1), 4, 1, 1)
	if dp.BatchTime <= pp.BatchTime {
		t.Fatalf("DP must lose to pipelines on slow links: %v vs %v", dp.BatchTime, pp.BatchTime)
	}
	// Every DP GPU carries the full model.
	full := w.TotalParamBytes()
	if dp.PerGPU[0].Memory.Weights != full {
		t.Fatal("DP replicates the whole model")
	}
	fast := testCluster(6, fastLink())
	dpFast := DataParallel(w, fast)
	if dpFast.BatchTime >= dp.BatchTime {
		t.Fatal("faster links must reduce DP batch time")
	}
}

func TestDeterminism(t *testing.T) {
	w := testWorkload(4, 8, 512)
	c := testCluster(4, slowLink())
	a := run(t, w, c, sched.OneFOneB(4, 8, 1), 8, 2, 1)
	b := run(t, w, c, sched.OneFOneB(4, 8, 1), 8, 2, 1)
	if a.Makespan != b.Makespan {
		t.Fatal("simulation must be deterministic")
	}
	for k := range a.PerGPU {
		if a.PerGPU[k].Busy != b.PerGPU[k].Busy || a.PerGPU[k].CommBlocked != b.PerGPU[k].CommBlocked {
			t.Fatal("per-GPU stats must be deterministic")
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	w := testWorkload(4, 8, 64)
	c := testCluster(4, fastLink())
	cases := []Config{
		{Workload: w, Cluster: c, Stages: evenStages(w, 4), Micro: 3, Pipelines: 1,
			Schedule: sched.AFAB(4, 3, 1), Batches: 1}, // 8 % 3 != 0
		{Workload: w, Cluster: c, Stages: evenStages(w, 4)[:2], Micro: 4, Pipelines: 1,
			Schedule: sched.AFAB(2, 4, 1), Batches: 1}, // stages != GPUs
		{Workload: w, Cluster: c, Stages: evenStages(w, 4), Micro: 4, Pipelines: 0,
			Schedule: sched.AFAB(4, 4, 1), Batches: 1}, // no pipelines
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestAvgUtilAndTimelineConsistency(t *testing.T) {
	w := testWorkload(4, 8, 512)
	c := testCluster(4, slowLink())
	r := run(t, w, c, sched.OneFOneB(4, 8, 1), 8, 1, 1)
	for k, g := range r.PerGPU {
		// Timeline area must equal Busy × PeakUtil.
		var area float64
		for _, iv := range g.Timeline {
			if iv.End < iv.Start {
				t.Fatalf("GPU %d: inverted interval", k)
			}
			area += iv.End - iv.Start
		}
		if math.Abs(area-g.Busy) > 1e-9 {
			t.Fatalf("GPU %d: timeline %v != busy %v", k, area, g.Busy)
		}
		if au := g.AvgUtil(r.Makespan); au > g.PeakUtil || au < 0 {
			t.Fatalf("GPU %d: avg util %v out of range", k, au)
		}
	}
	if r.AvgUtilization() <= 0 {
		t.Fatal("cluster utilization must be positive")
	}
}

// TestOnlyDeadlocksCountAsDeadlocks: a schedule Analyze rejects for
// another reason (here grad-weight ops out of accumulation order) fails
// Run with an error that is not ErrDeadlock and leaves the deadlock
// counter alone; an illegal AFP advance still is a deadlock.
func TestOnlyDeadlocksCountAsDeadlocks(t *testing.T) {
	w := testWorkload(2, 8, 64)
	simulate := func(k int, s *sched.Schedule) (float64, error) {
		reg := obs.NewRegistry()
		_, err := Run(Config{Workload: w, Cluster: testCluster(k, fastLink()), Stages: evenStages(w, k),
			Micro: 4, Pipelines: 1, Schedule: s, Batches: 1, Obs: reg})
		return reg.Counter("avgpipe_sim_deadlocks_total", "").Value(), err
	}
	swapped := sched.SplitBackward(sched.AFAB(1, 4, 1))
	// F1..F4 Bi1 Bw1 Bi2 Bw2 Bi3 Bw3 Bi4 Bw4 → ... Bi2 Bi3 Bw3 Bw2 ...
	ops := swapped.PerGPU[0]
	ops[7], ops[8], ops[9] = ops[8], ops[9], ops[7]
	deadlocks, err := simulate(1, swapped)
	if err == nil || errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "accumulation order") {
		t.Fatalf("swapped grad-weight pair: got %v, want a non-deadlock accumulation-order error", err)
	}
	if deadlocks != 0 {
		t.Fatalf("swapped grad-weight pair counted %v deadlocks, want 0", deadlocks)
	}
	advance := []int{0, 3}
	if sched.LegalAdvance(2, 4, advance) {
		t.Fatal("advance {0, 3} should be illegal at K=2 M=4")
	}
	deadlocks, err = simulate(2, sched.AFP(2, 4, 1, advance))
	if !errors.Is(err, ErrDeadlock) || deadlocks != 1 {
		t.Fatalf("illegal advance: got %v with %v deadlocks counted, want ErrDeadlock counted once", err, deadlocks)
	}
}
