// Package core implements AvgPipe: the elastic-averaging-based framework
// for pipeline-parallel DNN training (§3), advance forward propagation
// (§4.2, Algorithm 1), and the profiling-based tuning of parallelism
// degrees (§5). It composes the substrate packages — nn/optim for real
// training, sched/pipesim for performance simulation — into the system
// the paper describes (Fig. 10: partitioner, profiler, predictor,
// scheduler, runtime).
package core

import (
	"fmt"

	"avgpipe/internal/cluster"
	"avgpipe/internal/nn"
	"avgpipe/internal/workload"
)

// Partition splits the workload's layers into k contiguous stages,
// minimizing the maximum per-stage cost — the PipeDream-style dynamic
// program the paper reuses for its partitioner component ("we employ the
// existing method used in PipeDream", §6). The per-layer cost is forward
// plus backward FLOPs; a stage boundary additionally pays the boundary
// activation transfer, weighted by commWeight seconds-per-byte-FLOPs
// equivalence (pass 0 to balance compute only).
func Partition(w *workload.Workload, k int, commWeight float64) []workload.Stage {
	return partition(w, k, commWeight, func(flops float64, _ int) float64 { return flops })
}

// PartitionHetero splits the workload's layers across a heterogeneous
// cluster: stage s always runs on GPU s, so the dynamic program minimizes
// the maximum *time* per stage — compute cost divided by that GPU's
// throughput — rather than raw FLOPs. On a homogeneous cluster it reduces
// to Partition. This extends the paper toward HetPipe-style deployments.
func PartitionHetero(w *workload.Workload, c *cluster.Cluster, commWeight float64) []workload.Stage {
	return partition(w, c.Size(), commWeight, func(flops float64, s int) float64 { return flops / c.GPUs[s].PeakFLOPs })
}

// partition is the min-max dynamic program both partitioners share:
// layers [i, j) as stage s cost compute(their FLOPs, s), plus
// commWeight times the boundary activation bytes when the stage is not
// the last.
func partition(w *workload.Workload, k int, commWeight float64, compute func(flops float64, s int) float64) []workload.Stage {
	n := len(w.Layers)
	if k <= 0 || k > n {
		panic(fmt.Sprintf("core: cannot partition %d layers into %d stages", n, k))
	}
	// prefix[i] = total FLOPs of layers [0, i).
	prefix := make([]float64, n+1)
	for i, l := range w.Layers {
		prefix[i+1] = prefix[i] + l.FwdFLOPs + l.BwdFLOPs
	}
	cost := func(i, j, s int) float64 { // layers [i, j) as stage s
		c := compute(prefix[j]-prefix[i], s)
		if j < n && commWeight > 0 {
			c += commWeight * float64(w.Layers[j-1].OutActBytes)
		}
		return c
	}
	const inf = 1e300
	// dp[s][i]: minimal max-stage cost splitting layers [0, i) into s+1
	// stages; cut[s][i]: position of the last cut achieving it.
	dp := make([][]float64, k)
	cut := make([][]int, k)
	for s := range dp {
		dp[s] = make([]float64, n+1)
		cut[s] = make([]int, n+1)
		for i := range dp[s] {
			dp[s][i] = inf
		}
	}
	for i := 1; i <= n; i++ {
		dp[0][i] = cost(0, i, 0)
	}
	for s := 1; s < k; s++ {
		for i := s + 1; i <= n; i++ {
			for j := s; j < i; j++ {
				c := dp[s-1][j]
				if lc := cost(j, i, s); lc > c {
					c = lc
				}
				if c < dp[s][i] {
					dp[s][i] = c
					cut[s][i] = j
				}
			}
		}
	}
	if dp[k-1][n] >= inf {
		panic("core: partition DP failed")
	}
	bounds := make([]int, k+1)
	bounds[k] = n
	for s := k - 1; s > 0; s-- {
		bounds[s] = cut[s][bounds[s+1]]
	}
	stages := make([]workload.Stage, k)
	for s := 0; s < k; s++ {
		stages[s] = w.MakeStage(bounds[s], bounds[s+1]-1)
	}
	return stages
}

// PartitionModelCost splits a real model's layers into k contiguous
// stages with the cost-aware PipeDream DP (Partition), returning the
// same [lo, hi) bounds shape as PartitionModelLayers. Per-layer cost is
// estimated from parameter counts — the dominant FLOPs proxy for the
// dense layers the bundled tasks use (Linear/LSTM/attention run ≈
// 2·params FLOPs per sample) — with a small floor so parameter-free
// layers (activations, dropout, pooling) attach to the cheapest
// neighbouring stage instead of inflating the DP.
func PartitionModelCost(model *nn.Sequential, k int) [][2]int {
	layers := make([]workload.LayerCost, len(model.Layers))
	for i, l := range model.Layers {
		c := float64(nn.NumParams(l.Params()))
		if c < 1 {
			c = 1
		}
		layers[i] = workload.LayerCost{Name: fmt.Sprintf("layer%d", i), FwdFLOPs: c, BwdFLOPs: 2 * c}
	}
	w := &workload.Workload{Name: "model", Layers: layers, BatchSize: 1}
	stages := Partition(w, k, 0)
	out := make([][2]int, k)
	for s, st := range stages {
		out[s] = [2]int{st.First, st.Last + 1}
	}
	return out
}

// PartitionModelLayers splits `layers` layer indices [0,n) into k
// contiguous ranges with near-equal counts, used to partition the small
// real models whose per-layer costs are unknown. Returns the k boundary
// pairs [lo, hi).
func PartitionModelLayers(n, k int) [][2]int {
	if k <= 0 || k > n {
		panic(fmt.Sprintf("core: cannot partition %d layers into %d stages", n, k))
	}
	out := make([][2]int, k)
	lo := 0
	for s := 0; s < k; s++ {
		cnt := (n - lo) / (k - s)
		out[s] = [2]int{lo, lo + cnt}
		lo += cnt
	}
	return out
}
