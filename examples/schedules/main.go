// Schedules: compare pipeline schedules on the simulated paper testbed —
// the §4 story in one program. AFAB overlaps communication but stashes
// every micro-batch; 1F1B caps the stash but exposes communication;
// advance forward propagation recovers AFAB's speed at a fraction of its
// memory. Data parallelism is shown for contrast. The last section then
// feeds the same Schedule values to the real runtime: each trains an
// actual model on real tensors, and the measured per-stage occupancy
// matches the schedule's static analysis exactly.
//
// Run with: go run ./examples/schedules
package main

import (
	"context"
	"fmt"

	"avgpipe"
)

func main() {
	w := avgpipe.BERT()
	c := w.Cluster().SetSatSamples(w.SatSamples)
	stages := avgpipe.Partition(w, c.Size(), 0)
	k := c.Size()
	const m = 16

	fmt.Printf("%s on the paper testbed (3 nodes × 2 V100, 1 Gbps Ethernet), M=%d micro-batches\n\n", w.Name, m)
	fmt.Println("schedule        s/batch   peak mem    last-GPU idle")

	show := func(name string, s *avgpipe.Schedule) *avgpipe.SimResult {
		r, err := avgpipe.Simulate(avgpipe.SimConfig{
			Workload: w, Cluster: c, Stages: stages,
			Micro: m, Pipelines: 1, Schedule: s, Batches: 2,
		})
		if err != nil {
			panic(err)
		}
		last := r.PerGPU[k-1]
		fmt.Printf("%-14s  %7.3f   %6.1f GB   %6.3f s\n",
			name, r.BatchTime, float64(r.PeakMemory())/float64(1<<30), last.IdleTime()/2)
		return r
	}

	show("AFAB (GPipe)", avgpipe.AFAB(k, m, 2))
	show("1F1B (Dapple)", avgpipe.OneFOneB(k, m, 2))

	adv, afp, err := avgpipe.DecideAdvance(avgpipe.AFPConfig{
		Workload: w, Cluster: c, Stages: stages, Micro: m, Pipes: 1, Batches: 2,
	})
	if err != nil {
		panic(err)
	}
	last := afp.PerGPU[k-1]
	fmt.Printf("%-14s  %7.3f   %6.1f GB   %6.3f s   (advance %v)\n",
		"1F1B+AFP", afp.BatchTime, float64(afp.PeakMemory())/float64(1<<30), last.IdleTime()/2, adv)

	dp := avgpipe.SimulateDataParallel(w, c)
	fmt.Printf("%-14s  %7.3f   %6.1f GB   (all-reduce bound)\n",
		"data parallel", dp.BatchTime, float64(dp.PeakMemory())/float64(1<<30))

	// The same Schedule values drive the real runtime: interpret each on
	// real tensors and check the measured occupancy against the analysis.
	const rk, rm = 2, 4
	task := avgpipe.TranslationTask()
	batch := task.NewGen(7).NextBatch(task.BatchSize)
	fmt.Printf("\nreal-tensor run of %q, K=%d stages, M=%d micro-batches\n\n", task.Name, rk, rm)
	fmt.Println("schedule        loss     per-stage F/B      peak in-flight (measured = analytic)")
	for _, s := range []*avgpipe.Schedule{
		avgpipe.AFAB(rk, rm, 1),
		avgpipe.OneFOneB(rk, rm, 1),
		avgpipe.AFP(rk, rm, 1, []int{2, 0}),
	} {
		an, err := avgpipe.AnalyzeSchedule(s)
		if err != nil {
			panic(err)
		}
		pl, err := avgpipe.NewPipelineFromSchedule(task.NewModel(7), s)
		if err != nil {
			panic(err)
		}
		loss, err := pl.RunBatchContext(context.Background(), batch, rm)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-14s  %6.3f   ", s.Name, loss)
		for st, met := range pl.Metrics() {
			fmt.Printf("s%d:%dF/%dB ", st, met.Fwd, met.Bwd)
		}
		fmt.Print("   ")
		for st, met := range pl.Metrics() {
			fmt.Printf("s%d:%d=%d ", st, met.PeakInFlight, an.MaxInFlight[st])
		}
		fmt.Println()
	}
}
