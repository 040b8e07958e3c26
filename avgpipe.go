// Package avgpipe is a Go reproduction of "Elastic Averaging for
// Efficient Pipelined DNN Training" (PPoPP 2023): the AvgPipe system.
//
// AvgPipe accelerates pipeline-parallel DNN training by running N
// parallel pipelines coupled through an elastic-averaging reference model
// (so the batch size per pipeline — and with it statistical efficiency —
// is preserved while arithmetic intensity rises), scheduling micro-batches
// with 1F1B plus advance forward propagation (recovering AFAB's
// communication overlap at a fraction of its activation memory), and
// tuning the parallelism degrees (M micro-batches, N pipelines) with a
// profiling-based predictor instead of exhaustive search.
//
// The package exposes three layers of functionality:
//
//   - Training: real CPU execution of elastic-averaging pipelines over
//     the bundled neural-network library (Trainer, Task, and the model
//     building blocks).
//   - Simulation: a discrete-event model of pipeline schedules over a
//     GPU-cluster cost model, used to study schedules and reproduce the
//     paper's performance results (Simulate, Workloads, Clusters).
//   - Tuning: the profiling-based parallelism-degree tuner and its
//     baselines (Tune, Profile, Predict).
//
// See the examples directory for runnable end-to-end programs and
// EXPERIMENTS.md for the paper-versus-measured record.
package avgpipe

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"avgpipe/internal/cluster"
	"avgpipe/internal/core"
	"avgpipe/internal/data"
	"avgpipe/internal/fault"
	"avgpipe/internal/heal"
	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/obs/collect"
	"avgpipe/internal/optim"
	"avgpipe/internal/pipesim"
	"avgpipe/internal/sched"
	"avgpipe/internal/serve"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// --- tensors and models -------------------------------------------------

// Tensor is a dense float32 tensor (see internal/tensor for the full op
// set).
type Tensor = tensor.Tensor

// RNG is a deterministic random source for initialization and data.
type RNG = tensor.RNG

// NewRNG returns a seeded generator.
func NewRNG(seed int64) *RNG { return tensor.NewRNG(seed) }

// Module is a neural-network layer with explicit per-micro-batch forward
// and backward passes; Sequential chains modules and can be sliced into
// pipeline stages.
type (
	Module     = nn.Module
	Sequential = nn.Sequential
	Param      = nn.Param
)

// Layer constructors.
var (
	NewSequential = nn.NewSequential
	NewLinear     = nn.NewLinear
	NewEmbedding  = nn.NewEmbedding
	NewLSTM       = nn.NewLSTM
	NewBiLSTM     = nn.NewBiLSTM
	NewContext    = nn.NewContext
)

// Reverse flips a time-major sequence tensor along time (its own adjoint).
func Reverse(seqLen int) Module { return &nn.Reverse{SeqLen: seqLen} }

// Tanh is the tanh activation layer.
func Tanh() Module { return &nn.Tanh{} }

// NewTensor returns a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// SaveParams and LoadParams checkpoint model weights to a stable binary
// format.
var (
	SaveParams = nn.SaveParams
	LoadParams = nn.LoadParams
)

// --- optimizers ----------------------------------------------------------

// Optimizer applies local updates; AvgPipe composes with any of them
// (the framework's optimizer-decoupling claim, §3.1).
type Optimizer = optim.Optimizer

// Optimizer constructors.
var (
	NewSGD     = optim.NewSGD
	NewAdam    = optim.NewAdam
	NewAdaGrad = optim.NewAdaGrad
	NewASGD    = optim.NewASGD
	NewEASGD   = optim.NewEASGD
)

// LRScheduler maps optimizer steps to learning rates; ApplyLR wires one
// to an optimizer each step.
type (
	LRScheduler = optim.LRScheduler
	ConstantLR  = optim.ConstantLR
	Warmup      = optim.Warmup
	CosineDecay = optim.CosineDecay
	StepDecay   = optim.StepDecay
)

// ApplyLR sets the optimizer's learning rate from the scheduler.
func ApplyLR(opt Optimizer, sched LRScheduler, step int) { optim.Apply(opt, sched, step) }

// --- data and tasks -------------------------------------------------------

// Batch is one training batch; Generator produces an endless batch stream
// plus a fixed eval batch.
type (
	Batch     = data.Batch
	Generator = data.Generator
)

// Task bundles a model builder, data stream, and convergence target.
type Task = workload.Task

// Built-in scaled-down tasks mirroring the paper's workloads.
var (
	TranslationTask    = workload.TranslationTask
	ClassificationTask = workload.ClassificationTask
	LangModelTask      = workload.LangModelTask
)

// Evaluate runs the model on a batch in eval mode, returning loss and
// accuracy.
func Evaluate(m *Sequential, b *Batch, perPosition bool) (loss, acc float64) {
	return workload.Evaluate(m, b, perPosition)
}

// --- training (the elastic-averaging runtime) ----------------------------

// TrainerConfig configures an elastic-averaging training run.
type TrainerConfig = core.TrainerConfig

// Trainer runs N parallel pipelines coupled through the reference model.
type Trainer = core.Trainer

// NewTrainer builds the replicas, pipelines, optimizers, and reference
// model for a task. A malformed config is an error, not a panic.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) { return core.NewTrainer(cfg) }

// FaultConfig declares a deterministic fault schedule for a training
// run (TrainerConfig.Faults): delayed/dropped averaging updates,
// straggler stages, and a scripted replica crash/rejoin. The zero value
// injects nothing.
type FaultConfig = fault.Config

// StallError is the diagnosable failure a runtime watchdog raises when
// a pipeline schedule live-locks: it names the schedule and dumps each
// stage's in-flight position.
type StallError = core.StallError

// Averager is the elastic-averaging coordinator (reference model plus
// asynchronous update queues) behind Trainer.Averager.
type Averager = core.Averager

// Pipeline executes one partitioned model by its Schedule: each stage
// runs its per-GPU op sequence, an op dispatched once the dependency
// rule the simulator and AnalyzeSchedule share says its input is ready.
type Pipeline = core.Pipeline

// PartitionMode chooses between equal layer counts and the cost-aware
// PipeDream DP.
type PartitionMode = core.PartitionMode

// Partition policy constants.
const (
	PartitionEqualLayers = core.PartitionEqualLayers
	PartitionCostAware   = core.PartitionCostAware
)

// NewPipelineFromSchedule builds a pipeline that executes one explicit
// schedule verbatim — the same Schedule value the simulator accepts.
// The schedule's GPU count fixes the stage count and its micro count
// fixes the only micro count RunBatchContext accepts.
func NewPipelineFromSchedule(model *Sequential, s *Schedule) (*Pipeline, error) {
	return core.NewPipelineFromSchedule(model, s)
}

// --- networking (multi-process elastic averaging) -------------------------

// DistConfig identifies this process within a multi-process
// elastic-averaging job (TrainerConfig.Dist): its replica id and the
// formed mesh connecting it to its peers. Every process applies the
// same deterministic reduction to its own reference copy, so the N
// copies stay bit-identical without a coordinator.
type DistConfig = core.DistConfig

// Mesh is one replica's coordinator-free averaging fabric, formed by
// DialMesh: a dedicated connection to and from every topology neighbour
// (see internal/net for the wire protocol and the transport
// cancellation contract).
type Mesh = netx.Mesh

// ParseReplicaPeers parses the -peers flag syntax,
// "1=host:port,2=host:port", into an id → address map.
var ParseReplicaPeers = cluster.ParsePeers

// Topology shapes the averaging fabric behind the transport seam: which
// replica pairs hold connections and how update frames are relayed so
// every broadcast still reaches all N reference copies exactly once.
// Deltas keep their origin identity end to end, so the deterministic
// reduction — and bitwise reproducibility — is untouched by the choice.
type Topology = netx.Topology

// FullMesh is the reference topology (the seed behavior): O(N²)
// connections, every broadcast one direct hop.
type FullMesh = netx.FullMesh

// TopologyByName resolves a -topology flag value ("mesh", "ring",
// "hier"); group is the hierarchical group size (0 = ceil(sqrt(N))).
// The ring connects each replica to its successor only; the
// hierarchical fabric connects group members to their leader (the
// lowest id) and leaders to each other. Both hold O(N) connections.
var TopologyByName = netx.TopologyByName

// UpdateCodecByName resolves a -compress flag value: "none" (exact
// f32), "q8"/"q16" (linear quantization), or "topk" (sparsification).
// The compressed codecs accumulate their per-round error into a
// residual that is folded into the next update, so the averaged model
// still converges to the exact trajectory.
var UpdateCodecByName = netx.CodecByName

// MeshConfig places this process in a multi-process job for DialMesh.
// Its fields are the whole choice of how a replica joins the fabric.
type MeshConfig struct {
	// Self is this process's replica id; Listen is the TCP address its
	// transport listens on; Peers maps every other replica's id to its
	// address (the job has len(Peers)+1 replicas).
	Self   int
	Listen string
	Peers  map[int]string
	// Topology shapes the fabric (nil = FullMesh). Every connection's
	// handshake carries it with the job size, and a peer that disagrees
	// about either fails formation on both sides.
	Topology Topology
	// Registry receives the transport's metrics and, with SelfHeal, its
	// connection health events (nil = DefaultMetrics()).
	Registry *MetricsRegistry
	// SelfHeal arms self-healing after formation: broken connections
	// re-dial in the background under bumped session epochs, and the
	// formation listener keeps admitting reconnecting (or fully
	// restarted) peers. Full mesh only.
	SelfHeal bool
	// Rejoin re-forms the fabric of a restarted replica whose peers are
	// mid-training. It skips the formation-time clock sync: the peers'
	// averaging loops are already streaming updates, so a quiescent
	// ping/pong exchange is impossible; Trainer.RejoinMesh re-measures
	// the offsets once the averager is attached. Requires SelfHeal.
	Rejoin bool
}

// DialMesh forms the TCP averaging fabric of replica cfg.Self: it
// listens on cfg.Listen, dials the topology's neighbours in cfg.Peers
// with retry until ctx expires, and checks every connection's handshake
// (the sender's place in the topology, the job size, the topology
// fingerprint) on every topology. Peer processes may start in any order. Unless cfg.Rejoin, it then measures every neighbour's
// clock offset (round-trip midpoint) so distributed traces can be
// aligned onto one timeline; with cfg.SelfHeal it finally arms
// self-healing. SelfHeal off the full mesh, and Rejoin without
// SelfHeal, are errors.
func DialMesh(ctx context.Context, cfg MeshConfig) (*Mesh, error) {
	topo := cfg.Topology
	if topo == nil {
		topo = FullMesh{}
	}
	if cfg.SelfHeal && topo.Name() != "mesh" {
		return nil, fmt.Errorf("avgpipe: self-heal re-dials the full mesh only, not topology %s", topo.Name())
	}
	if cfg.Rejoin && !cfg.SelfHeal {
		return nil, errors.New("avgpipe: rejoin needs self-heal")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = DefaultMetrics()
	}
	tp := netx.NewTCP(reg)
	ln, err := tp.Listen(cfg.Listen)
	if err != nil {
		return nil, err
	}
	m, err := netx.FormTopologyOn(ctx, tp, ln, topo, cfg.Self, cfg.Peers)
	if err != nil {
		return nil, err
	}
	if !cfg.Rejoin {
		if err := m.SyncClocks(ctx); err != nil {
			m.Close()
			return nil, err
		}
	}
	if cfg.SelfHeal {
		if err := m.EnableSelfHeal(netx.SelfHealConfig{
			Transport: tp, Peers: cfg.Peers, Events: reg.Events(),
		}); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// --- self-healing (supervision and automatic recovery) --------------------

// HealConfig tunes the recovery supervisor: detach thresholds and the
// adaptive round-deadline controller (see DESIGN.md, Self-healing). It
// has no polling interval: the supervisor's round checks run on the
// averager's reference loop, after each frame it handles.
type HealConfig = heal.Config

// HealSupervisor closes the loop from health events to recovery
// actions: it subscribes to a registry's event log and auto-detaches
// stalled or disconnected replicas, and after each frame the averager's
// reference loop handles it detaches lagging replicas and retunes the
// averaging round deadline from the observed round-latency tail.
type HealSupervisor = heal.Supervisor

// NewHealSupervisor builds a supervisor for an averager, watching reg's
// health events. Start installs its event sink and its round checks on
// the averager; Stop removes the checks and makes the sink inert. It
// starts no goroutine.
func NewHealSupervisor(a *Averager, reg *MetricsRegistry, cfg HealConfig) *HealSupervisor {
	if reg == nil {
		reg = DefaultMetrics()
	}
	if cfg.Registry == nil {
		cfg.Registry = reg
	}
	return heal.New(a, reg.Events(), cfg)
}

// --- simulation (cost models, clusters, schedules) ------------------------

// Workload is an analytic per-layer cost model; Stage is a contiguous
// layer range assigned to one GPU.
type (
	Workload = workload.Workload
	Stage    = workload.Stage
)

// The paper's three evaluation workloads.
var (
	GNMT = workload.GNMT
	BERT = workload.BERT
	AWD  = workload.AWD
)

// Cluster describes a multi-node GPU topology; each Workload carries
// the cluster the paper measured it on.
type Cluster = cluster.Cluster

// Schedule is a per-GPU pipeline execution plan — the one plan
// abstraction both the simulator and the real runtime execute.
type Schedule = sched.Schedule

// Schedule generators (§4): AFAB/GPipe, 1F1B/Dapple, advance forward
// propagation, and the PipeDream variants.
var (
	AFAB         = sched.AFAB
	OneFOneB     = sched.OneFOneB
	AFP          = sched.AFP
	GPipe        = sched.GPipe
	Dapple       = sched.Dapple
	PipeDream    = sched.PipeDream
	PipeDream2BW = sched.PipeDream2BW
	LegalAdvance = sched.LegalAdvance
)

// ScheduleAnalysis is the static legality and occupancy report both
// execution engines trust.
type ScheduleAnalysis = sched.Analysis

// PlanByName resolves a -schedule flag value ("afab", "gpipe", "1f1b",
// "dapple", "afp") to its plan. advance feeds AFP; with any other
// schedule a non-nil advance is an error.
var PlanByName = sched.PlanByName

// AnalyzeSchedule statically checks a schedule (dependency deadlocks,
// malformed op lists) and computes its per-stage occupancy: Fwd/Bwd op
// counts, peak in-flight activations, and weight versions.
func AnalyzeSchedule(s *Schedule) (*ScheduleAnalysis, error) { return sched.Analyze(s) }

// SimConfig configures one pipeline simulation; SimResult carries per-GPU
// timing, utilization, and memory.
type (
	SimConfig = pipesim.Config
	SimResult = pipesim.Result
)

// Simulate runs the discrete-event pipeline simulation.
func Simulate(cfg SimConfig) (*SimResult, error) { return pipesim.Run(cfg) }

// ChimeraConfig configures a bidirectional-pipeline simulation (the
// Chimera design from related work); SimulateChimera runs it.
type ChimeraConfig = pipesim.ChimeraConfig

// SimulateChimera simulates Chimera's bidirectional pipelines.
func SimulateChimera(cfg ChimeraConfig) (*SimResult, error) { return pipesim.RunChimera(cfg) }

// SimulateDataParallel models the PyTorch data-parallel baseline.
func SimulateDataParallel(w *Workload, c *Cluster) *SimResult {
	return pipesim.DataParallel(w, c)
}

// Partition splits a workload into k balanced stages (PipeDream-style
// dynamic programming).
func Partition(w *Workload, k int, commWeight float64) []Stage {
	return core.Partition(w, k, commWeight)
}

// --- tuning ----------------------------------------------------------------

// Profile is the measurement of one parallelism setting; Prediction is
// the extrapolation to another (Eqs. 2–8).
type (
	Profile    = core.Profile
	Prediction = core.Prediction
	TuneResult = core.TuneResult
)

// ProfileSetting measures one (M, N) setting over twenty batches.
func ProfileSetting(w *Workload, c *Cluster, stages []Stage, m, n int) (*Profile, error) {
	return core.ProfileSetting(w, c, stages, m, n)
}

// Predict extrapolates a profile to new parallelism degrees.
func Predict(p *Profile, m, n int) (*Prediction, error) { return core.Predict(p, m, n) }

// Tune runs the profiling-based tuning method (§5.2) under a per-GPU
// memory limit in bytes (0 = device capacity).
func Tune(w *Workload, c *Cluster, stages []Stage, memLimit int64) (*TuneResult, *Profile, error) {
	return core.ProfilingTune(w, c, stages, memLimit)
}

// TraversalTune measures every setting (the expensive baseline of §7.3).
func TraversalTune(w *Workload, c *Cluster, stages []Stage, memLimit int64, trialBatches int) (*TuneResult, error) {
	return core.TraversalTune(w, c, stages, memLimit, trialBatches)
}

// AFPConfig configures Algorithm 1; DecideAdvance picks the advance
// forward propagation amounts for a pipeline configuration.
type AFPConfig = core.AFPConfig

// DecideAdvance implements Algorithm 1.
func DecideAdvance(cfg AFPConfig) ([]int, *SimResult, error) { return core.DecideAdvance(cfg) }

// --- serving (batched inference on the averaged model) --------------------

// InferenceServer serves the elastic averager's reference model — the
// statistically meaningful copy — with work-conserving batching on the
// callers' goroutines and zero-downtime model hot-swap (see
// internal/serve and DESIGN.md §14).
type (
	InferenceServer = serve.Server
	ServeConfig     = serve.Config
	ServeResult     = serve.Result
)

// NewInferenceServer builds a Server (it starts no goroutine); install
// a model via InstallCheckpoint, InstallSnapshot, or a watcher before
// the first Predict.
func NewInferenceServer(cfg ServeConfig) (*InferenceServer, error) { return serve.New(cfg) }

// ReferenceSnapshotPublisher is the training-side push path: it streams
// reference-model snapshots to a serving tier over the wire codec's
// snapshot frames.
type ReferenceSnapshotPublisher = serve.SnapshotPublisher

// NewReferenceSnapshotPublisher targets a serving tier's snapshot
// listener at addr on tr; the connection is dialed lazily.
func NewReferenceSnapshotPublisher(tr netx.Transport, addr string) *ReferenceSnapshotPublisher {
	return serve.NewSnapshotPublisher(tr, addr)
}

// --- observability ---------------------------------------------------------

// MetricsRegistry is a concurrent registry of counters, gauges, and
// histograms. Every subsystem (pipelines, queues, the averager, the
// trainer, the simulator) records into one; pass it via the Obs fields
// of TrainerConfig and SimConfig, or leave those nil to use the
// process-wide default registry.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultMetrics returns the process-wide default registry (what nil Obs
// fields resolve to).
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// ServeMetrics serves reg over HTTP on addr (":0" picks a free port):
// Prometheus text on /metrics, liveness/readiness on /healthz and
// /readyz, expvar JSON on /debug/vars, and net/http/pprof profiles
// under /debug/pprof. It returns the server plus the bound address.
func ServeMetrics(addr string, reg *MetricsRegistry, opts ...MetricsOption) (*http.Server, string, error) {
	return obs.Serve(addr, reg, opts...)
}

// MetricsOption customizes ServeMetrics; Health and WithHealth wire the
// /readyz probe to real process state.
type (
	MetricsOption = obs.HandlerOption
	Health        = obs.Health
)

// NewHealth returns a Health that starts not-ready.
func NewHealth() *Health { return obs.NewHealth() }

// WithHealth serves h behind /healthz and /readyz.
func WithHealth(h *Health) MetricsOption { return obs.WithHealth(h) }

// TelemetryCollector ingests per-replica telemetry sessions and serves
// the merged cluster view: one /metrics exposition with a `replica`
// label, derived cross-replica series, the merged health-event stream,
// and a clock-aligned merged Chrome trace. cmd/avgpipe-obs is its CLI.
type (
	TelemetryCollector       = collect.Collector
	TelemetryCollectorConfig = collect.CollectorConfig
)

// NewTelemetryCollector binds the ingest listener and starts accepting
// publisher sessions.
func NewTelemetryCollector(cfg TelemetryCollectorConfig) (*TelemetryCollector, error) {
	return collect.NewCollector(cfg)
}

// TelemetryPublisher ships one replica's metric snapshots, health
// events, and averaging-trace spans to the collector.
type (
	TelemetryPublisher       = collect.Publisher
	TelemetryPublisherConfig = collect.PublisherConfig
)

// NewTelemetryPublisher dials the collector and measures the clock
// offset; Start launches the periodic publish loop.
func NewTelemetryPublisher(ctx context.Context, cfg TelemetryPublisherConfig) (*TelemetryPublisher, error) {
	return collect.NewPublisher(ctx, cfg)
}

// NewTCPTransport returns the TCP frame transport (telemetry sessions,
// mesh links) recording into reg (nil = the default registry).
func NewTCPTransport(reg *MetricsRegistry) netx.Transport { return netx.NewTCP(reg) }

// Tracer accumulates Chrome-trace events (spans, process/thread
// metadata, and flow arrows) and writes the chrome://tracing JSON
// envelope. Pipeline.Tracer and SimResult.Tracer both return one, so a
// real run and its simulation render identically in Perfetto.
type Tracer = obs.Tracer

// NewTracer returns an empty tracer labeled with a source name. Attach
// one to an Averager (SetTracer) to record wall-clock submit/apply
// spans that a TelemetryPublisher can ship for cross-replica merging.
func NewTracer(source string) *Tracer { return obs.NewTracer(source) }
