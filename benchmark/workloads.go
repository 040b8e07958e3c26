package main

import "time"

// defaultSeed is the seed the committed golden losses belong to.
const defaultSeed = 1

// warmupRounds is the fixed number of training rounds every set-up runs
// before the clock starts: arena free lists fill, schedules are built,
// and the loss after exactly this many rounds is the value the golden
// check compares.
const warmupRounds = 50

// clipNorm is the gradient clip every example and the training CLI use;
// the stock langmodel learning rate (SGD, 8) needs it.
const clipNorm = 5

// trainSpec is a training workload: which task, and the N×K×M geometry.
type trainSpec struct {
	newTask func() *task
	n, k, m int
	// dist runs the N replicas as N dist-mode trainers of this one
	// process, joined by a TCP loopback full mesh.
	dist bool
	// gemm is the workload's dominant matrix product (m, k, n): the
	// shape the tensor probe times.
	gemm [3]int
}

// serveSpec is the open-loop serving workload.
type serveSpec struct {
	newTask func() *task
	// rate is the fixed arrival rate in requests per second.
	rate int
	// inputs is how many distinct request bodies the seed generates;
	// arrivals cycle through them.
	inputs int
	// maxInFlight bounds the backlog the generator will hold: an
	// arrival that finds this many requests unanswered is refused and
	// counted as failed, so a stalled server cannot grow memory without
	// bound.
	maxInFlight int
	gemm        [3]int
}

type workload struct {
	Name  string
	Why   string
	train *trainSpec
	serve *serveSpec
}

// awd-wide: the stock langmodel network behind a 32768-row embedding.
// The parameter vector is 4.3 MB (the issue's floor is 2 MB; at 2 MB
// the LSTM compute of a batch still outweighed the exchange on this
// machine, and the workload exists to make averaging the larger half).
const (
	awdStates = 16
	awdRows   = 32768
	awdDim    = 32
	awdSeqLen = 10
)

func awdWideTask() *task {
	base := langModelTask()
	t := *base
	t.Name = "awd-wide"
	t.NewModel = func(seed int64) *sequential {
		return newWideLangModel(seed, awdRows, awdDim, awdSeqLen, awdStates)
	}
	t.NewGen = func(seed int64) generator {
		return newWideGen(base.NewGen(seed), seed, awdStates, awdRows)
	}
	return &t
}

var workloads = []workload{
	{
		Name: "gnmt-n2",
		Why:  "Paper's headline shape: 2 pipelines x 2 stages x 4 micro-batches, in-process averaging; LSTM kernels and stage scheduling dominate, averaging is under a tenth of a step",
		train: &trainSpec{newTask: translationTask, n: 2, k: 2, m: 4,
			// one LSTM step of a micro-batch: (32/4 rows)×48 · 48×(4·48)
			gemm: [3]int{8, 48, 192}},
	},
	{
		Name: "bert-n1",
		Why:  "Single-pipeline baseline: no cross-replica exchange, attention/LayerNorm/softmax kernels instead of LSTM cells; averaging, wire and LSTM-only changes must leave it flat",
		train: &trainSpec{newTask: classificationTask, n: 1, k: 2, m: 4,
			// feed-forward of a micro-batch: (8 seqs × 8 tokens)×32 · 32×64
			gemm: [3]int{64, 32, 64}},
	},
	{
		Name: "awd-dist",
		Why:  "Same trainer, other bottleneck: 2 dist-mode replicas over TCP loopback, K=1, M=1, 4 MB mostly-untouched embedding; delta-encode-send-apply-wait is over half a step, scheduling is absent",
		train: &trainSpec{newTask: awdWideTask, n: 2, k: 1, m: 1, dist: true,
			// one LSTM step of the whole batch: 32×32 · 32×(4·32)
			gemm: [3]int{32, 32, 128}},
	},
	{
		Name: "serve-open",
		Why:  "Eval-mode graphs, dynamic batching, copy-out and JSON through Server.Handler at a fixed 1000 req/s open loop; independent callers, so latency is timed from each request's due time",
		serve: &serveSpec{newTask: translationTask, rate: 1000, inputs: 1024, maxInFlight: 2000,
			gemm: [3]int{8 * 8, 48, 192}},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// golden is the training loss of round warmupRounds−1 (float64 bits) at
// defaultSeed: same-seed arithmetic is bit-deterministic in this repo,
// so any other value means the numerics changed. Dist workloads list
// one value per replica.
var golden = map[string][]uint64{
	"gnmt-n2":  {0x3ffc53e6a6b33334},                     // 1.7704836379736664
	"bert-n1":  {0x3fe437f3a7800000},                     // 0.6318300506100059
	"awd-dist": {0x40061857e8800000, 0x400612706d000000}, // 2.7618864215910435, 2.75900349766016
}

// runSeconds is how long one run measures unless -seconds says
// otherwise, and BENCHMARK.json's run_seconds. The machine's noise comes
// in waves some ten seconds long; a run has to span a couple of them.
const runSeconds = 20

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. The last set-up is the one the timed region uses.
const setupRepeats = 5

// meshTimeout bounds mesh formation and is far above what loopback
// needs; it only turns a hang into an error.
const meshTimeout = 30 * time.Second
