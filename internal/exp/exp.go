// Package exp reproduces every figure of the paper's evaluation (§2
// motivation and §7). Each FigNN function returns a printable table whose
// rows mirror the series the paper plots; cmd/avgpipe-bench prints them
// all and bench_test.go wraps each in a testing.B benchmark.
//
// Absolute numbers differ from the paper (the substrate is a calibrated
// simulator plus scaled-down real training, not a V100 cluster); the
// claims under reproduction are the *shapes*: orderings, speedup factors,
// crossovers, and failure modes (OOM, divergence).
package exp

import (
	"fmt"
	"io"
	"strings"

	"avgpipe/internal/cluster"
	"avgpipe/internal/comm"
	"avgpipe/internal/core"
	"avgpipe/internal/device"
	"avgpipe/internal/obs"
	"avgpipe/internal/pipesim"
	"avgpipe/internal/sched"
	"avgpipe/internal/workload"
)

// System names, matching the paper's legend.
const (
	SysPyTorch   = "PyTorch"
	SysGPipe     = "GPipe"
	SysPipeDream = "PipeDream"
	Sys2BW       = "PipeDream-2BW"
	SysDapple    = "Dapple"
	SysAvgPipe   = "AvgPipe"
)

// Eval is one system's measured configuration and performance on one
// workload.
type Eval struct {
	System string
	// M and N are the micro-batch and parallel-pipeline counts in use.
	M, N int
	// Advance is the chosen advance-forward vector (AvgPipe only).
	Advance []int
	// TimePerDataBatch is seconds of training per batch of data (an
	// AvgPipe iteration consumes N batches).
	TimePerDataBatch float64
	// PeakMemPerGPU and TotalMem are bytes.
	PeakMemPerGPU int64
	TotalMem      int64
	// AvgUtil and PeakUtil are GPU utilization fractions.
	AvgUtil  float64
	PeakUtil float64
	// OOM marks configurations that do not fit GPU memory (reported, as
	// the paper reports PipeDream's OOM on BERT).
	OOM bool
	// Result keeps the underlying simulation for follow-up figures.
	Result *pipesim.Result
}

// GB converts bytes to gigabytes for presentation.
func GB(b int64) float64 { return float64(b) / float64(1<<30) }

// Setup bundles the per-workload objects every experiment needs.
type Setup struct {
	W      *workload.Workload
	C      *cluster.Cluster
	Stages []workload.Stage
}

// NewSetup partitions the workload over its paper cluster.
func NewSetup(w *workload.Workload) *Setup {
	c := w.Cluster().SetSatSamples(w.SatSamples)
	return &Setup{W: w, C: c, Stages: core.Partition(w, c.Size(), 0)}
}

func (s *Setup) fill(e *Eval, r *pipesim.Result, n int) *Eval {
	e.Result = r
	e.N = n
	e.TimePerDataBatch = r.BatchTime / float64(n)
	e.PeakMemPerGPU = r.PeakMemory()
	for _, g := range r.PerGPU {
		e.TotalMem += g.Memory.Total()
	}
	e.AvgUtil = r.AvgUtilization()
	for _, g := range r.PerGPU {
		if g.PeakUtil > e.PeakUtil {
			e.PeakUtil = g.PeakUtil
		}
	}
	e.OOM = r.OOM != nil
	return e
}

// EvalDataParallel evaluates the PyTorch data-parallel baseline.
func (s *Setup) EvalDataParallel() *Eval {
	r := pipesim.DataParallel(s.W, s.C)
	e := &Eval{System: SysPyTorch, M: 1}
	return s.fill(e, r, 1)
}

// bestM searches the divisors of the batch size for the fastest
// memory-feasible micro-batch count under the given schedule generator.
func (s *Setup) bestM(system string, gen func(k, m, batches int) *sched.Schedule, batches int) *Eval {
	k := s.C.Size()
	var best *Eval
	for _, m := range core.Divisors(s.W.BatchSize) {
		r, err := pipesim.Run(pipesim.Config{
			Workload: s.W, Cluster: s.C, Stages: s.Stages,
			Micro: m, Pipelines: 1, Schedule: gen(k, m, batches), Batches: batches,
		})
		if err != nil {
			continue
		}
		if r.OOM != nil {
			continue
		}
		e := s.fill(&Eval{System: system, M: m}, r, 1)
		if best == nil || e.TimePerDataBatch < best.TimePerDataBatch {
			best = e
		}
	}
	if best != nil {
		return best
	}
	// Nothing fit: report the least-bad configuration as OOM.
	m := s.W.BatchSize
	r, err := pipesim.Run(pipesim.Config{Workload: s.W, Cluster: s.C, Stages: s.Stages,
		Micro: m, Pipelines: 1, Schedule: gen(k, m, batches), Batches: batches})
	if err != nil {
		panic(fmt.Sprintf("exp: baseline %s unrunnable: %v", system, err))
	}
	return s.fill(&Eval{System: system, M: m}, r, 1)
}

// EvalGPipe evaluates GPipe (AFAB, recomputation disabled, M tuned).
func (s *Setup) EvalGPipe() *Eval { return s.bestM(SysGPipe, sched.GPipe, 1) }

// EvalDapple evaluates Dapple (synchronous 1F1B, M tuned).
func (s *Setup) EvalDapple() *Eval { return s.bestM(SysDapple, sched.Dapple, 1) }

// EvalPipeDream evaluates PipeDream: the whole minibatch flows as one
// pipeline unit (no gradient accumulation), versions fill the bubbles,
// and stage s keeps K−s weight versions. Memory, not time, is its
// failure mode (OOM on BERT, §7.1.1).
func (s *Setup) EvalPipeDream() *Eval {
	const batches = 6
	k := s.C.Size()
	r, err := pipesim.Run(pipesim.Config{
		Workload: s.W, Cluster: s.C, Stages: s.Stages,
		Micro: 1, Pipelines: 1,
		Schedule: sched.PipeDream(k, 1, batches), Batches: batches,
	})
	if err != nil {
		panic(fmt.Sprintf("exp: PipeDream unrunnable: %v", err))
	}
	return s.fill(&Eval{System: SysPipeDream, M: 1}, r, 1)
}

// EvalPipeDream2BW evaluates PipeDream-2BW (continuous 1F1B, 2 weight
// versions, M tuned).
func (s *Setup) EvalPipeDream2BW() *Eval {
	const batches = 6
	return s.bestM(Sys2BW, func(k, m, _ int) *sched.Schedule {
		return sched.PipeDream2BW(k, m, batches)
	}, batches)
}

// EvalAvgPipe tunes AvgPipe's parallelism degrees with the profiling
// method under the given per-GPU memory limit (0 = device capacity) and
// evaluates the chosen setting with Algorithm 1 deciding the advance.
func (s *Setup) EvalAvgPipe(memLimit int64) *Eval {
	if memLimit <= 0 {
		memLimit = s.C.GPUs[0].MemBytes
	}
	tune, _, err := core.ProfilingTune(s.W, s.C, s.Stages, memLimit)
	if err != nil {
		panic(fmt.Sprintf("exp: AvgPipe tuning failed: %v", err))
	}
	if tune.Relaxed {
		// The budget was below AvgPipe's irreducible floor (reference
		// model + one replica); fall back to device capacity.
		memLimit = s.C.GPUs[0].MemBytes
	}
	adv, r, err := core.DecideAdvance(core.AFPConfig{
		Workload: s.W, Cluster: s.C, Stages: s.Stages,
		Micro: tune.M, Pipes: tune.N, MemLimit: memLimit, Batches: 4, RefModel: tune.N > 1,
	})
	if err != nil {
		panic(fmt.Sprintf("exp: AvgPipe evaluation failed: %v", err))
	}
	e := &Eval{System: SysAvgPipe, M: tune.M, Advance: adv}
	return s.fill(e, r, tune.N)
}

// Table is a simple fixed-width text table used by every figure.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Remarks []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	line(dashes(widths))
	for _, r := range t.Rows {
		line(r)
	}
	for _, rem := range t.Remarks {
		fmt.Fprintf(&b, "# %s\n", rem)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// CSV renders the table as RFC-4180 CSV (header row first), for plotting
// pipelines outside this repository.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// WriteJSONL streams the table as JSON Lines through the obs logger:
// one object per data row keyed by the header cells, each carrying the
// table slug — the structured counterpart of CSV for plotting pipelines
// and the figure harness's step/epoch logs.
func (t *Table) WriteJSONL(w io.Writer) error {
	l := obs.NewJSONL(w)
	for _, r := range t.Rows {
		rec := make(map[string]any, len(t.Header)+1)
		rec["table"] = t.Slug()
		for i, h := range t.Header {
			if i < len(r) {
				rec[h] = r[i]
			}
		}
		if err := l.Log(rec); err != nil {
			return fmt.Errorf("exp: table %s: %w", t.Slug(), err)
		}
	}
	return nil
}

// Slug derives a filesystem-friendly name from the table title.
func (t *Table) Slug() string {
	s := strings.ToLower(t.Title)
	var b strings.Builder
	dash := false
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Workload shorthands keep the figure files terse.
func gnmt() *workload.Workload { return workload.GNMT() }
func bert() *workload.Workload { return workload.BERT() }

// twoGPUSlowCluster builds the K=2 didactic topology of Fig. 7 with a
// link slow enough to expose 1F1B's communication stalls.
func twoGPUSlowCluster() *cluster.Cluster {
	gpu := device.GPU{Name: "didactic", PeakFLOPs: 1e12, SatSamples: 0, MemBytes: 32 << 30}
	link := comm.Link{Name: "slow", BytesPerSec: 125e6}
	return cluster.New(1, 2, gpu, link, link)
}
