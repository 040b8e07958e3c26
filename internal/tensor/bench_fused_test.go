package tensor_test

import (
	"testing"

	"avgpipe/internal/tensor"
)

// Fused-op benchmarks live in their own file because the fused API does
// not exist in pre-overhaul trees (the before-numbers worktree behind
// BENCH_kernels.json's pre_overhaul_* fields deleted this file).

func BenchmarkKernelMatMulBiasAct(b *testing.B) {
	rng := tensor.NewRNG(5)
	a := rng.Uniform(-1, 1, 32, 512)
	w := rng.Uniform(-1, 1, 512, 512)
	bias := rng.Uniform(-1, 1, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tensor.MatMulBiasAct(a, w, bias, tensor.ActTanh)
		out.Release()
	}
}
