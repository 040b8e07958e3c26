package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Kernels fan work out to a persistent pool of worker goroutines instead
// of spawning goroutines per call: a ParallelFor builds one task whose
// chunked index ranges are claimed with an atomic counter, invites idle
// workers with non-blocking sends, and then drains chunks itself. The
// submitter always makes progress on its own task, so nested ParallelFor
// (attention runs matmuls inside a ParallelFor over the batch) cannot
// deadlock, and a saturated pool degrades to the caller running serially
// rather than queueing behind other tasks.

// parallelThreshold is the minimum amount of work, in cost units, before a
// kernel fans out; below it, scheduling overhead dominates and the body
// runs serially on the caller's goroutine. A cost unit is what a scalar Go
// loop spends on one element (callers pass iterations × their
// per-iteration estimate). Loops that run on the vector kernels finish
// vectorOpsPerUnit element operations in that time and divide by it.
const parallelThreshold = 1 << 14

// chunksPerWorker oversubscribes chunks relative to workers so a worker
// that finishes early claims remaining ranges instead of idling —
// work-stealing-ish balance without per-worker deques.
const chunksPerWorker = 4

// maxWorkers is the pool size, fixed at first use to GOMAXPROCS.
var maxWorkers = runtime.GOMAXPROCS(0)

// poolTask is one ParallelFor invocation. Workers (and the submitter)
// atomically claim chunk indices until the range is exhausted. Tasks are
// freshly allocated per invocation: a lagging worker may still hold a
// pointer to a finished task, so recycling them through a pool would race.
type poolTask struct {
	body  func(lo, hi int)
	n     int
	chunk int
	next  atomic.Int64
	wg    sync.WaitGroup
}

// run claims and executes chunks until none remain. Stale tasks (already
// fully claimed by the time a worker dequeues them) fall through
// immediately.
func (t *poolTask) run() {
	for {
		c := t.next.Add(1) - 1
		lo := int(c) * t.chunk
		if lo >= t.n {
			return
		}
		hi := lo + t.chunk
		if hi > t.n {
			hi = t.n
		}
		t.body(lo, hi)
		t.wg.Done()
	}
}

var (
	poolOnce sync.Once
	poolCh   chan *poolTask
	// poolBusy counts pool goroutines currently executing a task; the obs
	// bridge mirrors it into the workers-busy gauge.
	poolBusy atomic.Int64
)

// startPool lazily launches the worker goroutines. maxWorkers-1 of them:
// the submitting goroutine always acts as the final worker on its own
// task.
func startPool() {
	poolCh = make(chan *poolTask, 4*maxWorkers)
	for i := 0; i < maxWorkers-1; i++ {
		go func() {
			for t := range poolCh {
				poolBusy.Add(1)
				publishPoolGauges()
				t.run()
				poolBusy.Add(-1)
				publishPoolGauges()
			}
		}()
	}
}

// PoolWorkersBusy reports how many pool goroutines are currently running
// kernel chunks (excluding submitters working on their own tasks).
func PoolWorkersBusy() int { return int(poolBusy.Load()) }

// ParallelFor splits [0, n) into chunks executed by the worker pool, with
// each iteration costing roughly one unit of work. The ranges partition
// [0, n) exactly; bodies on different ranges run concurrently, so they
// must only write disjoint output. Falls back to a single serial call for
// small n.
func ParallelFor(n int, body func(lo, hi int)) {
	parallelFor(n, n, 1, body, callRange)
}

// ParallelForCost is ParallelFor with an explicit per-iteration cost
// estimate, for kernels whose iterations are expensive (a softmax row
// costs its width, a layernorm row the feature dimension). The
// serial-versus-parallel decision uses n×costPerIter, so heavy loops with
// few iterations still fan out. Chunking is by iteration count only —
// per-element results are identical to the serial path regardless of
// cost, worker count, or chunk boundaries.
func ParallelForCost(n, costPerIter int, body func(lo, hi int)) {
	parallelFor(n, n*max(costPerIter, 1), 1, body, callRange)
}

func callRange(body func(lo, hi int), lo, hi int) { body(lo, hi) }

// parallelVec is parallelFor for an elementwise loop over n floats that
// runs on the vector kernels: costed at their speed, and chunked at whole
// 8-float vectors so only the last chunk has a scalar tail.
func parallelVec[A any](n int, args A, body func(args A, lo, hi int)) {
	parallelFor(n, n/vectorOpsPerUnit, 8, args, body)
}

// parallelGEMM fans the m output rows of an (m,k)·(k,n) product out in
// chunks of whole row tiles: a kernel that advances two (or eight) rows
// together must not have a tile split between chunks.
func parallelGEMM[A any](m, k, n, rowTile int, args A, body func(args A, lo, hi int)) {
	parallelFor(m, m*k*n/vectorOpsPerUnit, rowTile, args, body)
}

// parallelFor runs body(args, lo, hi) over [0, n) in chunks whose
// boundaries are multiples of align, fanning out when work (in cost
// units) reaches parallelThreshold. The decision comes before any closure
// is built: body is a function that captures nothing and args a value, so
// a serial call — every per-head GEMM of a lowered attention, most
// per-micro-batch kernels — allocates nothing.
func parallelFor[A any](n, work, align int, args A, body func(args A, lo, hi int)) {
	if n <= 0 {
		return
	}
	if maxWorkers <= 1 || n <= align || work < parallelThreshold {
		body(args, 0, n)
		return
	}
	fanOut(n, align, func(lo, hi int) { body(args, lo, hi) })
}

// fanOut runs body over [0, n) on the pool in chunks aligned to align.
func fanOut(n, align int, body func(lo, hi int)) {
	poolOnce.Do(startPool)
	chunks := maxWorkers * chunksPerWorker
	chunk := (n + chunks - 1) / chunks
	chunk = (chunk + align - 1) / align * align
	nchunks := (n + chunk - 1) / chunk
	t := &poolTask{body: body, n: n, chunk: chunk}
	t.wg.Add(nchunks)
	// Invite up to nchunks-1 helpers; non-blocking sends mean a busy pool
	// simply leaves more chunks for the submitter.
	helpers := nchunks - 1
	if helpers > maxWorkers-1 {
		helpers = maxWorkers - 1
	}
	for i := 0; i < helpers; i++ {
		select {
		case poolCh <- t:
		default:
			i = helpers
		}
	}
	t.run()
	t.wg.Wait()
}
