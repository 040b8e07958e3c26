package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 1 << 14, 1<<14 + 1, 100000} {
		var mu sync.Mutex
		seen := make([]int, n)
		ParallelFor(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("n=%d: bad range [%d,%d)", n, lo, hi)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelForCostFansOutSmallN(t *testing.T) {
	// 64 iterations is far below the element threshold, but with a heavy
	// per-iteration cost the loop must still be eligible for fan-out: the
	// observable contract is that the whole range is covered.
	var sum atomic.Int64
	ParallelForCost(64, 1<<12, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if got := sum.Load(); got != 64*63/2 {
		t.Fatalf("sum %d, want %d", got, 64*63/2)
	}

	// The rule the matmuls fan out by: work below the threshold is one
	// serial call however many rows there are; at the threshold the rows
	// split, but only at multiples of the kernel's row tile, so no chunk
	// starts inside a tile and only the last may end inside one.
	type span struct{ lo, hi int }
	spans := func(n, work, align int) []span {
		var mu sync.Mutex
		var got []span
		parallelFor(n, work, align, func(lo, hi int) {
			mu.Lock()
			got = append(got, span{lo, hi})
			mu.Unlock()
		}, callRange)
		return got
	}
	if got := spans(64, parallelThreshold-1, 8); len(got) != 1 || got[0] != (span{0, 64}) {
		t.Fatalf("work below the threshold ran as %v, want one call over [0,64)", got)
	}
	for _, c := range []struct{ n, align int }{{64, 8}, {61, 8}, {9, 2}, {7, 8}, {1000, 2}} {
		covered := 0
		for _, s := range spans(c.n, parallelThreshold, c.align) {
			if s.lo%c.align != 0 || (s.hi%c.align != 0 && s.hi != c.n) {
				t.Fatalf("n=%d align=%d: chunk [%d,%d) splits a row tile", c.n, c.align, s.lo, s.hi)
			}
			covered += s.hi - s.lo
		}
		if covered != c.n {
			t.Fatalf("n=%d align=%d: chunks cover %d rows", c.n, c.align, covered)
		}
	}
}

// TestSerialKernelsAllocateNothing pins the serial path of every kernel a
// lowered op calls many times per micro-batch (attention runs a dozen
// small GEMMs per sequence and head): parallelFor decides "serial" before
// any closure exists, so a serial-sized call makes no heap allocation.
func TestSerialKernelsAllocateNothing(t *testing.T) {
	r := NewRNG(3)
	a, b, bt := r.Normal(0, 1, 8, 8), r.Normal(0, 1, 8, 8), r.Normal(0, 1, 8, 8)
	out, bias := New(8, 8), r.Normal(0, 1, 8)
	x := r.Normal(0, 1, 64)
	y := New(64)
	// One LSTM cell step of batch 2, hidden 4 (8 carries, 32 gates).
	zx, zh, c, lb := r.Normal(0, 1, 2, 16), r.Normal(0, 1, 2, 16), r.Normal(0, 1, 2, 4), r.Normal(0, 1, 16)
	gates := LSTMGates{Z: New(2, 16), C: New(2, 4), TanhC: New(2, 4), H: New(2, 4)}
	dz, dc := New(2, 16), New(2, 4)
	for name, f := range map[string]func(){
		"matMulAccInto":        func() { matMulAccInto(out, a, b) },
		"MatMulTransBInto":     func() { MatMulTransBInto(out, a, bt) },
		"MatMulTransAInto":     func() { MatMulTransAInto(out, a, b) },
		"MatMulTransAAcc":      func() { MatMulTransAAcc(out, a, b) },
		"SumRowsAcc":           func() { SumRowsAcc(bias, a) },
		"MatMulBiasActInto":    func() { MatMulBiasActInto(out, a, b, bias, ActTanh) },
		"SoftmaxRowsInto":      func() { SoftmaxRowsInto(out, a) },
		"ApplyInto":            func() { ApplyInto(y, x, func(v float32) float32 { return 1 - v*v }) },
		"MulInto":              func() { MulInto(y, x, x) },
		"AddInto":              func() { AddInto(y, x, x) },
		"AddInPlace":           func() { y.AddInPlace(x) },
		"ScaleInPlace":         func() { y.ScaleInPlace(0.5) },
		"TanhInto":             func() { TanhInto(y.data, x.data) },
		"GeluInto":             func() { GeluInto(y.data, x.data) },
		"GeluDerivInto":        func() { GeluDerivInto(y.data, x.data) },
		"LSTMCellForwardInto":  func() { LSTMCellForwardInto(gates, zx, zh, c, lb) },
		"LSTMCellBackwardInto": func() { LSTMCellBackwardInto(dz, dc, c, c, c, c, gates) },
	} {
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s: %v allocations per serial-sized call, want 0", name, n)
		}
	}
}

func TestParallelForNested(t *testing.T) {
	// Attention runs kernels inside a ParallelFor over the batch; the
	// submitter-participates design must not deadlock or drop ranges.
	n := 1 << 15
	out := make([]int32, n)
	ParallelFor(8, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			ParallelFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&out[i], 1)
				}
			})
		}
	})
	for i, c := range out {
		if c != 8 {
			t.Fatalf("index %d visited %d times, want 8", i, c)
		}
	}
}

func TestParallelForConcurrentSubmitters(t *testing.T) {
	// Many goroutines submitting tasks at once (the pipeline's stage
	// workers) must each see their own full range. Run under -race in the
	// Makefile race tier.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 1 << 15
			local := make([]int32, n)
			ParallelFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					local[i]++
				}
			})
			for i, c := range local {
				if c != 1 {
					t.Errorf("index %d visited %d times", i, c)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPoolWorkersBusyNonNegative(t *testing.T) {
	ParallelFor(1<<15, func(lo, hi int) {})
	if PoolWorkersBusy() < 0 {
		t.Fatalf("busy workers %d < 0", PoolWorkersBusy())
	}
}
