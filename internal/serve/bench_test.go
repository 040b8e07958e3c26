package serve

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"avgpipe/internal/obs"
	"avgpipe/internal/workload"
)

// The Serve* benchmarks back `make bench-serve-gate` (baseline:
// BENCH_serve.json). Three angles on the serving hot path:
//
//   - ServeBatchForward8 drives runBatch directly with a full batch —
//     deterministic work, no scheduler in the loop. This is the number
//     that moves when the compiled forward path or the per-request
//     copy-out regresses.
//   - ServeSaturatedPredict is the closed-loop saturation number:
//     parallel clients fire back-to-back through Predict, batching on
//     their own goroutines, so 1/ns_per_op is the sustained throughput
//     the gate records.
//   - ServeOfferedLoadP99 paces requests at a fixed offered load and
//     reports the p99 latency as its ns/op — the tail-latency contract
//     at a load the server can comfortably sustain.

// benchServer builds a ready-to-serve instance with an installed model
// and all batch sizes pre-bound, so first-use Env construction does not
// leak into the measured region.
func benchServer(b *testing.B, maxBatch, workers int) *Server {
	b.Helper()
	task := workload.TranslationTask()
	s, err := New(Config{
		Task:     task,
		MaxBatch: maxBatch,
		Workers:  workers,
		Obs:      obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	if err := s.InstallSnapshot(snapFrame(task.NewModel(11).Params(), 1)); err != nil {
		b.Fatal(err)
	}
	// Warm every (replica, batch-size) Env with one batch of each size.
	toks := benchTokens(s)
	for id := 0; id < workers; id++ {
		for n := 1; n <= maxBatch; n++ {
			runBenchBatch(b, s, id, newBenchBatch(toks, n))
		}
	}
	return s
}

// newBenchBatch builds n requests for runBatch, each with its reply
// channel.
func newBenchBatch(toks []int, n int) []*request {
	batch := make([]*request, n)
	for i := range batch {
		batch[i] = &request{tokens: toks, reply: make(chan reply, 1)}
	}
	return batch
}

// runBenchBatch runs batch on replica id and collects its replies.
func runBenchBatch(b *testing.B, s *Server, id int, batch []*request) {
	for _, r := range batch {
		r.start = time.Now()
	}
	s.runBatch(id, batch)
	for _, r := range batch {
		if rep := <-r.reply; rep.err != nil {
			b.Fatal(rep.err)
		}
	}
}

func benchTokens(s *Server) []int {
	toks := make([]int, s.SeqLen())
	for i := range toks {
		toks[i] = (31*i + 7) % s.Vocab()
	}
	return toks
}

// BenchmarkServeBatchForward8 measures one full batch through runBatch
// — bind, time-major fill, compiled forward, logits copy-out, reply —
// with no queue or client goroutines in the loop. ns/op is per batch
// of 8, not per request.
func BenchmarkServeBatchForward8(b *testing.B) {
	s := benchServer(b, 8, 1)
	batch := newBenchBatch(benchTokens(s), 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBenchBatch(b, s, 0, batch)
	}
}

// BenchmarkServeSaturatedPredict is the closed-loop saturation
// benchmark: parallel clients issue back-to-back Predict calls, each
// running batches on its own goroutine while a replica is idle. ns/op
// is wall time per completed request, so sustained throughput = 1e9 / ns_per_op req/s — the
// "sustained throughput" number BENCH_serve.json commits to.
func BenchmarkServeSaturatedPredict(b *testing.B) {
	s := benchServer(b, 8, 2)
	toks := benchTokens(s)
	ctx := context.Background()
	b.SetParallelism(4)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Predict(ctx, toks); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkServeOfferedLoadP99 drives a fixed offered load (open loop:
// admission is paced by the clock, not by completions) and reports the
// p99 request latency as the benchmark's ns/op via ReportMetric. The
// rate is chosen well under saturation so the number is the batching +
// forward tail, not a queueing blow-up; the gate's elevated
// time_regression_limit absorbs tail noise.
func BenchmarkServeOfferedLoadP99(b *testing.B) {
	const rate = 1500 // req/s offered
	s := benchServer(b, 8, 2)
	toks := benchTokens(s)
	ctx := context.Background()
	interval := time.Second / rate

	lats := make([]time.Duration, b.N)
	sem := make(chan struct{}, 64)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	next := time.Now()
	for i := 0; i < b.N; i++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			if _, err := s.Predict(ctx, toks); err != nil {
				b.Error(err)
				return
			}
			lats[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	b.StopTimer()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[int(0.99*float64(len(lats)-1))]
	b.ReportMetric(float64(p99.Nanoseconds()), "ns/op")
}
