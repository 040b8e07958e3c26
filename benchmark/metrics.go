package main

// metricDef is one row of the benchmark's contract: BENCHMARK.json
// lists exactly these names, units and directions, and every run's
// result carries exactly the set that matches its mode.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer
	// metrics, which are reported, not gated).
	Bound float64
}

// The end-to-end metrics, reported by every workload's untraced run.
// One "op" is a training round on the three training workloads (a
// StepContext call; one per replica per round on awd-dist) and one
// request on serve-open.
var endToEnd = []metricDef{
	{Name: "samples_per_s", Unit: "samples/s", Better: "higher", Bound: 0.25},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// The per-layer metrics, reported by every workload's traced run.
// README.md's tables say how each is measured and which end-to-end
// metric it should move on which workload.
var perLayer = []metricDef{
	{Name: "op.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "op.ms_tail", Unit: "ms", Better: "lower"},
	{Name: "op.tail_percentile", Unit: "%", Better: "higher"},
	{Name: "op.samples", Unit: "count", Better: "higher"},
	{Name: "data.next_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_flop", Unit: "count", Better: "lower"},
	{Name: "tensor.gemm_bytes", Unit: "bytes", Better: "lower"},
	{Name: "compiled.micro_ms", Unit: "ms", Better: "lower"},
	{Name: "compiled.micro_allocs", Unit: "count", Better: "lower"},
	{Name: "nn.interp_micro_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bubble_fraction", Unit: "ratio", Better: "lower"},
	{Name: "sched.ideal_bubble_fraction", Unit: "ratio", Better: "lower"},
	{Name: "optim.step_ms", Unit: "ms", Better: "lower"},
	{Name: "avg.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "avg.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "avg.dilute_ms", Unit: "ms", Better: "lower"},
	{Name: "avg.exposed_share", Unit: "ratio", Better: "lower"},
	{Name: "net.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "net.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "net.pack_mb_s.q8", Unit: "MB/s", Better: "higher"},
	{Name: "net.pack_mb_s.topk", Unit: "MB/s", Better: "higher"},
	{Name: "net.unpack_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "net.rtt_ms.inproc", Unit: "ms", Better: "lower"},
	{Name: "net.rtt_ms.tcp", Unit: "ms", Better: "lower"},
	{Name: "net.bytes_per_round", Unit: "bytes", Better: "lower"},
	{Name: "net.frames_per_round", Unit: "count", Better: "lower"},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.predict_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.http_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.lateness_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills in a run's metrics by name; the unit comes from the
// definition so a result can never disagree with BENCHMARK.json.
type metricSet struct{ vals map[string]metric }

func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{vals: make(map[string]metric, len(defs))}
	for _, d := range defs {
		s.vals[d.Name] = metric{Unit: d.Unit}
	}
	return s
}

func (s *metricSet) set(name string, v float64) {
	m, ok := s.vals[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in this run's contract")
	}
	m.Value = v
	s.vals[name] = m
}
