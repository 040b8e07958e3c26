// Package pipesim is a discrete-event simulator of pipeline-parallel DNN
// training over a modeled GPU cluster. Given a workload's per-stage cost
// model, a cluster topology, a schedule (internal/sched), and the AvgPipe
// parallelism degrees (M micro-batches, N parallel pipelines), it computes
// per-GPU busy/communication-blocked/bubble time, utilization timelines,
// per-batch training time, and peak memory footprints.
//
// Modeling choices (documented in DESIGN.md):
//
//   - Transfers are asynchronous: a stage's output starts moving as soon
//     as it is produced, serialized FIFO per link and direction. Compute
//     only stalls when it *waits* for an in-flight arrival — this is what
//     lets AFAB overlap communication with computation while 1F1B, whose
//     critical path crosses the links once per micro-batch in each
//     direction, stalls repeatedly (§4.1).
//   - The N parallel pipelines are simulated explicitly by interleaving
//     the per-pipeline schedule (sched.Interleave): micro-batch m of
//     pipeline p becomes global unit m·N+p, with the N pipelines' units
//     interleaved on every GPU. Each kernel runs at efficiency eff(N·b)
//     (co-running pipelines raise arithmetic intensity), and each
//     pipeline's transfers are separate link messages. This captures the
//     paper's key overlap effect: while one pipeline waits for a
//     transfer, the other pipelines' compute fills the gap. Total per-GPU
//     communication still scales with N (matching (𝕋^k)* = (n*/n)·𝕋^k,
//     Eq. 4).
//   - Each pipeline has a placement (sched.Schedule.Stage): stage s runs
//     on GPU s, or on GPU K−1−s for a pipeline placed in reverse.
//     Chimera (RunChimera) is two 1F1B pipelines, the second reversed.
//     Dependencies and op costs are in stage space; GPU occupancy, link
//     FIFOs and CommTotal are in GPU space; memory sums the stages each
//     GPU hosts. There is one event loop for every configuration.
package pipesim

import (
	"errors"
	"fmt"
	"math"

	"avgpipe/internal/cluster"
	"avgpipe/internal/device"
	"avgpipe/internal/obs"
	"avgpipe/internal/sched"
	"avgpipe/internal/workload"
)

// ErrDeadlock is sched.ErrDeadlock: the schedule's per-GPU op orders
// form a dependency cycle (e.g. an AFP advance vector where a downstream
// stage runs further ahead than its upstream can feed).
var ErrDeadlock = sched.ErrDeadlock

// Config describes one simulated training configuration.
type Config struct {
	Workload *workload.Workload
	Cluster  *cluster.Cluster
	// Stages maps pipeline stage index to its aggregated layer costs; one
	// stage per GPU.
	Stages []workload.Stage
	// Micro is M, the number of micro-batches each batch is sliced into.
	Micro int
	// Pipelines is N, the number of parallel pipelines (1 for non-AvgPipe
	// baselines).
	Pipelines int
	// Schedule gives the per-GPU op order; its micro indices must cover
	// Micro × Batches.
	Schedule *sched.Schedule
	// Batches is how many consecutive batches to simulate. Continuous
	// schedules need several to expose steady state.
	Batches int
	// RefModel adds the co-partitioned elastic-averaging reference model
	// to every GPU's memory footprint (AvgPipe only).
	RefModel bool
	// Recompute enables GPipe-style activation recomputation: only each
	// micro-batch's stage-boundary input is stashed, and the forward is
	// replayed before the backward (bwd cost += fwd cost). The paper's
	// experiments disable it; it is exposed here for the ablation study.
	Recompute bool
	// Obs selects the metrics registry the simulation records run and
	// deadlock counters into (nil = obs.Default()).
	Obs *obs.Registry
}

// registry resolves the configured metrics registry.
func (c *Config) registry() *obs.Registry {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default()
}

// Interval is one span of a GPU's utilization timeline.
type Interval struct {
	Start, End float64 // seconds
	Util       float64 // fraction of peak (0 while idle)
	// Label names the op that ran ("F3", "B3"), matching the real
	// runtime's trace event names.
	Label string
}

// GPUStats aggregates one GPU's simulated behaviour over all batches.
type GPUStats struct {
	// Busy is the time spent computing.
	Busy float64
	// CommBlocked is the idle time attributable to waiting for in-flight
	// transfers (the T_com of Eq. 1).
	CommBlocked float64
	// Bubble is the remaining idle time, waiting on other GPUs' compute
	// (the T_bub of Eq. 1).
	Bubble float64
	// CommTotal is the total duration of transfers arriving at this GPU
	// (the 𝕋^k used by the predictor).
	CommTotal float64
	// PeakUtil is the utilization while computing.
	PeakUtil float64
	// Fwd and Bwd count the ops executed on this GPU, and PeakInFlight
	// is the stash high-water mark actually reached — the simulator-side
	// counterparts of the runtime's StageMetrics, asserted equal to the
	// schedule's analytic occupancy (sched.Analyze) by the
	// cross-validation tests. Under a split schedule Bwd counts the
	// grad-input (BwdIn) ops and BwdW the grad-weight ops, mirroring
	// StageMetrics.Bwd/BwdW.
	Fwd, Bwd, BwdW int
	PeakInFlight   int
	// Memory is the peak footprint breakdown.
	Memory device.MemoryBreakdown
	// Timeline is the busy-interval record (idle gaps implicit).
	Timeline []Interval
}

// AvgUtil returns the time-averaged utilization over [0, makespan].
func (g GPUStats) AvgUtil(makespan float64) float64 {
	if makespan <= 0 {
		return 0
	}
	var area float64
	for _, iv := range g.Timeline {
		area += (iv.End - iv.Start) * iv.Util
	}
	return area / makespan
}

// IdleTime returns bubble + communication-blocked time.
func (g GPUStats) IdleTime() float64 { return g.Bubble + g.CommBlocked }

// Result is the outcome of one simulation.
type Result struct {
	// Makespan is the total simulated time for all batches.
	Makespan float64
	// BatchTime is the steady-state per-batch time (Makespan / Batches).
	BatchTime float64
	// PerGPU holds one entry per pipeline stage.
	PerGPU []GPUStats
	// OOM is non-nil when some GPU's footprint exceeds its capacity; the
	// timing fields are still populated so callers can report both.
	OOM error
	// Config echoes the simulated configuration.
	Config Config
}

// PeakMemory returns the maximum per-GPU footprint in bytes.
func (r *Result) PeakMemory() int64 {
	var m int64
	for _, g := range r.PerGPU {
		if t := g.Memory.Total(); t > m {
			m = t
		}
	}
	return m
}

// AvgUtilization returns the mean over GPUs of time-averaged utilization.
func (r *Result) AvgUtilization() float64 {
	if len(r.PerGPU) == 0 {
		return 0
	}
	var s float64
	for _, g := range r.PerGPU {
		s += g.AvgUtil(r.Makespan)
	}
	return s / float64(len(r.PerGPU))
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	k := len(c.Stages)
	if k == 0 || k != c.Cluster.Size() {
		return fmt.Errorf("pipesim: %d stages for %d GPUs", k, c.Cluster.Size())
	}
	if c.Micro <= 0 || c.Workload.BatchSize%c.Micro != 0 {
		return fmt.Errorf("pipesim: batch %d not divisible into %d micro-batches", c.Workload.BatchSize, c.Micro)
	}
	if c.Pipelines <= 0 {
		return fmt.Errorf("pipesim: need at least one pipeline")
	}
	if c.Batches <= 0 {
		return fmt.Errorf("pipesim: need at least one batch")
	}
	if len(c.Schedule.PerGPU) != k {
		return fmt.Errorf("pipesim: schedule covers %d GPUs, want %d", len(c.Schedule.PerGPU), k)
	}
	return c.Schedule.Validate()
}

// microSamples returns the per-micro-batch sample count b = B/M.
func (c *Config) microSamples() int { return c.Workload.BatchSize / c.Micro }

// Run simulates the configuration.
func Run(cfg Config) (*Result, error) { return simulate(cfg, false) }

// simulate runs cfg.Pipelines copies of cfg.Schedule interleaved on the
// cluster (sched.Interleave), every odd one placed in reverse when
// reverse is set.
func simulate(cfg Config, reverse bool) (*Result, error) {
	reg := cfg.registry()
	runs := reg.Counter("avgpipe_sim_runs_total", "Pipeline simulations executed.")
	deadlocks := reg.Counter("avgpipe_sim_deadlocks_total", "Simulations rejected for schedule deadlock.")
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The shared legality/occupancy layer: illegal schedules are rejected
	// up front, and the analysis drives the memory accounting. Only a
	// dependency cycle counts as a deadlock.
	analysis, err := sched.Analyze(cfg.Schedule)
	if err != nil {
		if errors.Is(err, ErrDeadlock) {
			deadlocks.Inc()
		}
		return nil, fmt.Errorf("pipesim: %w", err)
	}
	runs.Inc()
	k := len(cfg.Stages)
	n := cfg.Pipelines
	b := cfg.microSamples()
	// Expand the per-pipeline schedule into the N-pipeline interleaving:
	// unit m of pipeline p is global unit m·N+p.
	sim := sched.Interleave(cfg.Schedule, n, reverse)
	total := cfg.Micro * cfg.Batches * n

	// Per-op durations (seconds) by GPU, stage and op kind, dur[g·k+s]:
	// an op costs its stage's FLOPs at the speed of the GPU that runs it.
	// Co-running pipelines raise the kernel efficiency: every op executes
	// at eff(N·b).
	dur := make([][4]float64, k*k)
	util := make([]float64, k)
	for g := 0; g < k; g++ {
		gpu := cfg.Cluster.GPUs[g]
		gpu.SatSamples = cfg.Workload.SatSamples
		eff := gpu.Efficiency(float64(n * b))
		util[g] = eff
		for s := 0; s < k; s++ {
			fwd := cfg.Stages[s].FwdFLOPs * float64(b) / (gpu.PeakFLOPs * eff)
			bwd := cfg.Stages[s].BwdFLOPs * float64(b) / (gpu.PeakFLOPs * eff)
			// A split backward's halves are modeled as an even split of
			// the combined cost (dx = dy·Wᵀ and dW = xᵀ·dy are the same
			// GEMM shape transposed), so Bi + Bw sums exactly to B and
			// split vs combined simulations stay makespan-comparable.
			d := &dur[g*k+s]
			d[sched.Fwd], d[sched.Bwd] = fwd, bwd
			d[sched.BwdIn], d[sched.BwdW] = bwd/2, bwd/2
			if cfg.Recompute {
				// The backward pass replays the forward first; for a split
				// backward the replay precedes the grad-input half (it
				// rebuilds the activations both halves read).
				d[sched.Bwd] += fwd
				d[sched.BwdIn] += fwd
			}
		}
	}
	// Transfer durations, xfer[l][s]: stage s's output activation for one
	// pipeline's micro-batch over link l. The gradient stage s+1 sends
	// back has the same size, so a transfer between stages s and s+1 is
	// priced by stage s, whichever link the placement puts it on.
	xfer := make([][]float64, k-1)
	for l := range xfer {
		xfer[l] = make([]float64, k-1)
		for s := range xfer[l] {
			xfer[l][s] = cfg.Cluster.Link(l).TransferTime(cfg.Stages[s].OutActBytes * int64(b)).Seconds()
		}
	}

	// Per event (sched.Event.Index): when[e] is when its producer
	// finished, arrive[e] when a cross-stage event reached its consumer.
	// The producer's finish splits a consumer's wait into bubble
	// (upstream still computing) and comm-blocked (transfer in flight).
	when := make([]float64, 2*k*total)
	arrive := make([]float64, 2*k*total)
	// linkFree[0][l] and linkFree[1][l] are when link l is next free
	// toward the higher and the lower GPU.
	linkFree := [2][]float64{make([]float64, k-1), make([]float64, k-1)}
	gpuFree := make([]float64, k)
	inflight := make([]int, k)
	stats := make([]GPUStats, k)
	for g := range stats {
		stats[g].PeakUtil = util[g]
	}

	// Deps, events and durations are in stage space; GPU occupancy, link
	// FIFOs and the wait accounting are in GPU space. sim.Stage maps
	// between them, both ways.
	walk := sched.NewWalker(sim)
	err = walk.Run(func(ready []int) int {
		// Run the ready op with the earliest feasible start time, so link
		// FIFO order matches simulated time order. An op's input is there
		// at `at`, behind a compute completion at depEnd; input data is
		// always resident, so an op with no input event has it at 0.
		g, op, begin, at, depEnd := -1, sched.Op{}, math.Inf(1), 0.0, 0.0
		for _, h := range ready {
			o, _ := walk.Next(h)
			a, d := 0.0, 0.0
			st := sim.Stage(h, o.Micro)
			if in, _ := o.Deps(st, k); in.Kind != sched.NoEvent {
				i := in.Index(k, total)
				a, d = when[i], when[i]
				if in.Stage != st {
					a = arrive[i]
				}
			}
			if b := math.Max(gpuFree[h], a); b < begin {
				g, op, begin, at, depEnd = h, o, b, a, d
			}
		}

		// Attribute the wait preceding this op.
		if wait := begin - gpuFree[g]; wait > 0 {
			commPart := math.Min(wait, math.Max(at-depEnd, 0))
			// Only the tail of the wait can overlap the transfer.
			commPart = math.Min(commPart, math.Max(at-gpuFree[g], 0))
			stats[g].CommBlocked += commPart
			stats[g].Bubble += wait - commPart
		}

		s := sim.Stage(g, op.Micro)
		d := dur[g*k+s][op.Kind]
		end := begin + d
		gpuFree[g] = end
		stats[g].Busy += d
		stats[g].Timeline = append(stats[g].Timeline, Interval{Start: begin, End: end, Util: util[g], Label: op.String()})

		switch op.Kind {
		case sched.Fwd:
			stats[g].Fwd++
			inflight[g]++
			stats[g].PeakInFlight = max(stats[g].PeakInFlight, inflight[g])
		case sched.BwdIn:
			// A split backward keeps the stash live until the grad-weight
			// op reads it.
			stats[g].Bwd++
		case sched.Bwd:
			stats[g].Bwd++
			inflight[g]--
		case sched.BwdW:
			stats[g].BwdW++
			inflight[g]--
		}

		if _, out := op.Deps(s, k); out.Kind != sched.NoEvent {
			i := out.Index(k, total)
			when[i] = end
			if to, ok := out.Remote(k); ok {
				// The event travels to h, the GPU that runs stage to,
				// over the link between them (indexed by the lower GPU).
				h := sim.Stage(to, op.Micro)
				dir, l := 0, g
				if h < g {
					dir, l = 1, h
				}
				x := xfer[l][min(s, to)]
				arrive[i] = math.Max(end, linkFree[dir][l]) + x
				linkFree[dir][l] = arrive[i]
				stats[h].CommTotal += x
			}
		}
		return g
	})
	if err != nil {
		return nil, fmt.Errorf("pipesim: %w", err)
	}

	makespan := 0.0
	for s := 0; s < k; s++ {
		if gpuFree[s] > makespan {
			makespan = gpuFree[s]
		}
	}
	res := &Result{
		Makespan:  makespan,
		BatchTime: makespan / float64(cfg.Batches),
		PerGPU:    stats,
		Config:    cfg,
	}
	// Trailing idle up to the makespan counts as bubble (waiting for the
	// rest of the pipeline to drain).
	for s := 0; s < k; s++ {
		res.PerGPU[s].Bubble += makespan - gpuFree[s]
	}
	res.computeMemory(analysis, sim)
	return res, nil
}

// computeMemory fills in per-GPU memory breakdowns and the OOM check.
// GPU g hosts one stage of every pipeline (placed by sim.Stage), and
// each hosted stage is charged at its own analytic occupancy in an, the
// analysis of one pipeline's schedule.
func (r *Result) computeMemory(an *sched.Analysis, sim *sched.Schedule) {
	cfg := r.Config
	b := int64(cfg.microSamples())
	// For multi-batch flushed simulations the schedule-wide in-flight
	// bound equals the single-batch bound; continuous schedules are
	// already steady-state bounded.
	var oom error
	for g := range cfg.Stages {
		var mb device.MemoryBreakdown
		var params int64
		for p := 0; p < cfg.Pipelines; p++ {
			s := sim.Stage(g, p)
			st := cfg.Stages[s]
			params += st.ParamBytes
			mb.Weights += st.ParamBytes * int64(an.WeightVersions[s])
			stashPerSample := st.StashBytes
			if cfg.Recompute {
				// Only the stage-boundary input survives until the
				// backward; the replayed forward rebuilds the rest.
				stashPerSample = st.OutActBytes
			}
			mb.Activations += stashPerSample * b * int64(an.MaxInFlight[s])
			// Boundary send/receive buffers for activations and gradients.
			mb.Buffers += 2 * st.OutActBytes * b
		}
		if cfg.RefModel {
			mb.Weights += cfg.Stages[g].ParamBytes
		}
		mb.OptimizerState = int64(float64(params) * cfg.Workload.OptimStateFactor)
		mb.Gradients = params
		r.PerGPU[g].Memory = mb
		if err := cfg.Cluster.GPUs[g].CheckFit(mb); err != nil && oom == nil {
			oom = fmt.Errorf("stage %d (%s): %w", g, cfg.Schedule.Name, err)
		}
	}
	r.OOM = oom
}

// RecordDrift cross-checks the simulation against measured runtime
// occupancy: fwd, bwd, and peak are the real runtime's per-stage forward
// op counts, backward op counts, and stash high-water marks (e.g. from
// core.StageMetrics). Every disagreement increments the
// avgpipe_sim_runtime_drift_total counter for its dimension in reg and
// counts toward the returned total — zero means the simulator and the
// runtime executed identical per-stage work, the invariant the
// cross-validation tests pin.
func (r *Result) RecordDrift(reg *obs.Registry, fwd, bwd, peak []int) int {
	if reg == nil {
		reg = obs.Default()
	}
	drift := 0
	check := func(dim string, measured []int, simulated func(GPUStats) int) {
		c := reg.Counter("avgpipe_sim_runtime_drift_total",
			"Per-stage disagreements between simulated and measured occupancy.", "dim", dim)
		for s, g := range r.PerGPU {
			if s >= len(measured) || simulated(g) != measured[s] {
				c.Inc()
				drift++
			}
		}
	}
	check("fwd", fwd, func(g GPUStats) int { return g.Fwd })
	check("bwd", bwd, func(g GPUStats) int { return g.Bwd })
	check("peak_inflight", peak, func(g GPUStats) int { return g.PeakInFlight })
	return drift
}

// DataParallel analytically models the PyTorch data-parallel baseline:
// every GPU holds a full model replica, computes forward+backward on
// BatchSize/K samples, then ring-all-reduces every gradient over the
// cluster's bottleneck link. On 1 Gbps Ethernet the all-reduce dwarfs
// compute, which is the paper's Fig. 11 observation.
func DataParallel(w *workload.Workload, c *cluster.Cluster) *Result {
	k := c.Size()
	per := w.BatchSize / k
	if per == 0 {
		per = 1
	}
	full := w.MakeStage(0, len(w.Layers)-1)
	gpu := c.GPUs[0]
	gpu.SatSamples = w.SatSamples
	fwd := gpu.ComputeTime(full.FwdFLOPs*float64(per), per, 1).Seconds()
	bwd := gpu.ComputeTime(full.BwdFLOPs*float64(per), per, 1).Seconds()
	compute := fwd + bwd
	allreduce := c.AllReduceTime(full.ParamBytes)
	// DDP-style overlap: bucketed all-reduce proceeds concurrently with
	// the backward pass that produces the gradients.
	batch := fwd + math.Max(bwd, allreduce)
	stats := make([]GPUStats, k)
	for s := range stats {
		u := gpu.Efficiency(float64(per))
		stats[s] = GPUStats{
			Busy:        compute,
			CommBlocked: allreduce,
			CommTotal:   allreduce,
			PeakUtil:    u,
			Timeline:    []Interval{{Start: 0, End: compute, Util: u}},
			Memory: device.MemoryBreakdown{
				Weights:        full.ParamBytes,
				OptimizerState: int64(float64(full.ParamBytes) * w.OptimStateFactor),
				Gradients:      full.ParamBytes,
				Activations:    full.StashBytes * int64(per),
				Buffers:        full.ParamBytes, // all-reduce staging
			},
		}
	}
	res := &Result{Makespan: batch, BatchTime: batch, PerGPU: stats,
		Config: Config{Workload: w, Cluster: c, Pipelines: 1, Micro: 1, Batches: 1}}
	var oom error
	for s := range stats {
		if err := c.GPUs[s].CheckFit(stats[s].Memory); err != nil && oom == nil {
			oom = err
		}
	}
	res.OOM = oom
	return res
}
