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
//   - The N parallel pipelines are simulated explicitly by expanding the
//     per-pipeline schedule: micro-batch m of pipeline p becomes global
//     unit m·N+p, with the N pipelines' units interleaved on every GPU.
//     Each kernel runs at efficiency eff(N·b) (co-running pipelines raise
//     arithmetic intensity), and each pipeline's transfers are separate
//     link messages. This captures the paper's key overlap effect: while
//     one pipeline waits for a transfer, the other pipelines' compute
//     fills the gap. Total per-GPU communication still scales with N
//     (matching (𝕋^k)* = (n*/n)·𝕋^k, Eq. 4).
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

// expandSchedule interleaves n symmetric pipelines: every op on micro m
// becomes n consecutive ops on global units m·n+p, preserving each GPU's
// op order. With n = 1 the schedule is returned unchanged.
func expandSchedule(s *sched.Schedule, n int) *sched.Schedule {
	if n == 1 {
		return s
	}
	out := &sched.Schedule{
		Name:           s.Name,
		Continuous:     s.Continuous,
		WeightVersions: s.WeightVersions,
		PerGPU:         make([][]sched.Op, len(s.PerGPU)),
	}
	for k, ops := range s.PerGPU {
		exp := make([]sched.Op, 0, len(ops)*n)
		for _, op := range ops {
			for p := 0; p < n; p++ {
				exp = append(exp, sched.Op{Kind: op.Kind, Micro: op.Micro*n + p})
			}
		}
		out.PerGPU[k] = exp
	}
	return out
}

// Run simulates the configuration.
func Run(cfg Config) (*Result, error) {
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
	sim := expandSchedule(cfg.Schedule, n)
	total := cfg.Micro * cfg.Batches * n

	// Per-unit durations (seconds), by op kind and stage. Co-running
	// pipelines raise the kernel efficiency: every unit executes at
	// eff(N·b).
	dur := [4][]float64{make([]float64, k), make([]float64, k), make([]float64, k), make([]float64, k)}
	util := make([]float64, k)
	for s := 0; s < k; s++ {
		gpu := cfg.Cluster.GPUs[s]
		gpu.SatSamples = cfg.Workload.SatSamples
		eff := gpu.Efficiency(float64(n * b))
		fwd := cfg.Stages[s].FwdFLOPs * float64(b) / (gpu.PeakFLOPs * eff)
		bwd := cfg.Stages[s].BwdFLOPs * float64(b) / (gpu.PeakFLOPs * eff)
		// A split backward's halves are modeled as an even split of the
		// combined cost (dx = dy·Wᵀ and dW = xᵀ·dy are the same GEMM
		// shape transposed), so Bi + Bw sums exactly to B and split vs
		// combined simulations stay makespan-comparable.
		dur[sched.Fwd][s], dur[sched.Bwd][s] = fwd, bwd
		dur[sched.BwdIn][s], dur[sched.BwdW][s] = bwd/2, bwd/2
		if cfg.Recompute {
			// The backward pass replays the forward first; for a split
			// backward the replay precedes the grad-input half (it rebuilds
			// the activations both halves read).
			dur[sched.Bwd][s] += fwd
			dur[sched.BwdIn][s] += fwd
		}
		util[s] = eff
	}
	// Per-link transfer durations: stage s → s+1 carries one pipeline's
	// micro-batch activation; the backward gradient has the same size.
	xfer := make([]float64, k-1)
	for s := 0; s < k-1; s++ {
		bytes := cfg.Stages[s].OutActBytes * int64(b)
		xfer[s] = cfg.Cluster.Link(s).TransferTime(bytes).Seconds()
	}

	// Per event (sched.Event.Index): when[e] is when its producer
	// finished, arrive[e] when a cross-stage event reached its consumer.
	// The producer's finish splits a consumer's wait into bubble
	// (upstream still computing) and comm-blocked (transfer in flight).
	when := make([]float64, 2*k*total)
	arrive := make([]float64, 2*k*total)
	// linkFree[0][l] and linkFree[1][l] are when link l is next free
	// downstream and upstream.
	linkFree := [2][]float64{make([]float64, k-1), make([]float64, k-1)}
	gpuFree := make([]float64, k)
	inflight := make([]int, k)
	stats := make([]GPUStats, k)
	for s := range stats {
		stats[s].PeakUtil = util[s]
	}

	walk := sched.NewWalker(sim)
	err = walk.Run(func(ready []int) int {
		// Run the ready op with the earliest feasible start time, so link
		// FIFO order matches simulated time order. An op's input is there
		// at `at`, behind a compute completion at depEnd; input data is
		// always resident, so an op with no input event has it at 0.
		s, op, begin, at, depEnd := -1, sched.Op{}, math.Inf(1), 0.0, 0.0
		for _, g := range ready {
			o, _ := walk.Next(g)
			a, d := 0.0, 0.0
			if in, _ := o.Deps(g, k); in.Kind != sched.NoEvent {
				i := in.Index(k, total)
				a, d = when[i], when[i]
				if in.Stage != g {
					a = arrive[i]
				}
			}
			if b := math.Max(gpuFree[g], a); b < begin {
				s, op, begin, at, depEnd = g, o, b, a, d
			}
		}

		// Attribute the wait preceding this op.
		if wait := begin - gpuFree[s]; wait > 0 {
			commPart := math.Min(wait, math.Max(at-depEnd, 0))
			// Only the tail of the wait can overlap the transfer.
			commPart = math.Min(commPart, math.Max(at-gpuFree[s], 0))
			stats[s].CommBlocked += commPart
			stats[s].Bubble += wait - commPart
		}

		d := dur[op.Kind][s]
		end := begin + d
		gpuFree[s] = end
		stats[s].Busy += d
		stats[s].Timeline = append(stats[s].Timeline, Interval{Start: begin, End: end, Util: util[s], Label: op.String()})

		switch op.Kind {
		case sched.Fwd:
			stats[s].Fwd++
			inflight[s]++
			stats[s].PeakInFlight = max(stats[s].PeakInFlight, inflight[s])
		case sched.BwdIn:
			// A split backward keeps the stash live until the grad-weight
			// op reads it.
			stats[s].Bwd++
		case sched.Bwd:
			stats[s].Bwd++
			inflight[s]--
		case sched.BwdW:
			stats[s].BwdW++
			inflight[s]--
		}

		if _, out := op.Deps(s, k); out.Kind != sched.NoEvent {
			i := out.Index(k, total)
			when[i] = end
			if to, ok := out.Remote(k); ok {
				dir, l := 0, s
				if to < s {
					dir, l = 1, to
				}
				arrive[i] = math.Max(end, linkFree[dir][l]) + xfer[l]
				linkFree[dir][l] = arrive[i]
				stats[to].CommTotal += xfer[l]
			}
		}
		return s
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
	res.computeMemory(analysis)
	return res, nil
}

// computeMemory fills in per-GPU memory breakdowns and the OOM check,
// from the schedule's analytic occupancy.
func (r *Result) computeMemory(an *sched.Analysis) {
	cfg := r.Config
	n := int64(cfg.Pipelines)
	b := int64(cfg.microSamples())
	inflight := an.MaxInFlight
	// For multi-batch flushed simulations the schedule-wide in-flight
	// bound equals the single-batch bound; continuous schedules are
	// already steady-state bounded.
	var oom error
	for s := range cfg.Stages {
		st := cfg.Stages[s]
		versions := int64(an.WeightVersions[s])
		mb := device.MemoryBreakdown{}
		mb.Weights = st.ParamBytes * versions * n
		if cfg.RefModel {
			mb.Weights += st.ParamBytes
		}
		mb.OptimizerState = int64(float64(st.ParamBytes) * cfg.Workload.OptimStateFactor * float64(n))
		mb.Gradients = st.ParamBytes * n
		stashPerSample := st.StashBytes
		if cfg.Recompute {
			// Only the stage-boundary input survives until the backward;
			// everything else is rebuilt by the replayed forward.
			stashPerSample = st.OutActBytes
		}
		mb.Activations = stashPerSample * b * n * int64(inflight[s])
		// Boundary send/receive buffers for activations and gradients.
		mb.Buffers = 2 * st.OutActBytes * b * n
		r.PerGPU[s].Memory = mb
		if err := cfg.Cluster.GPUs[s].CheckFit(mb); err != nil && oom == nil {
			oom = fmt.Errorf("stage %d (%s): %w", s, cfg.Schedule.Name, err)
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

// MemoryOf assembles a memory breakdown from its components; shared by
// the pipeline and Chimera simulators.
func MemoryOf(paramBytes int64, optimFactor float64, activations, buffers int64) device.MemoryBreakdown {
	return device.MemoryBreakdown{
		Weights:        paramBytes,
		OptimizerState: int64(float64(paramBytes) * optimFactor),
		Gradients:      paramBytes,
		Activations:    activations,
		Buffers:        buffers,
	}
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
