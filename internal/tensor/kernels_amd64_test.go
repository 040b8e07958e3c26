package tensor

import (
	"math/rand"
	"testing"
)

var avx2Kernels = kernelImpl{
	axpy: axpyAddAVX2, axpy4: axpy4AddAVX2, axpy42: axpy4Add2AVX2,
	add: vecAddAVX2, sub: vecSubAVX2, mul: vecMulAVX2, scale: vecScaleAVX2,
	dilute: diluteAVX2, zeros: zeroBlocksAVX2, runs: runsAVX2,
	transB: transBRows, act: func(a Act, dst, src []float32) { actInto(a, dst, src) },
	addTo: vecAddToAVX2, transAAcc: transAAcc, cellBwd: lstmCellBwd,
}

// TestAVX2KernelsMatchGo is the assembly half of the kernel proof: every
// AVX2 primitive equals its Go definition bit for bit on the shared table,
// and so do the GEMM drivers built on them, skip path included.
func TestAVX2KernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS without AVX2: the Go loops are the only path")
	}
	checkKernelsBitEqual(t, avx2Kernels, goKernels)

	// Whole GEMMs with the layer on and off: odd m, k not a multiple of 4,
	// every n tail, and a's zeros, signed zeros and infinities exercising
	// the skip decision that stays in Go.
	r := rand.New(rand.NewSource(21))
	defer func() { useAVX2 = true }()
	for _, sh := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {5, 67, 13}, {7, 13, 17}, {9, 64, 16}, {11, 130, 33}, {16, 48, 192}, {33, 9, 8},
	} {
		a := FromSlice(specialSlice(r, sh.m*sh.k, 1, 5+sh.k), sh.m, sh.k)
		b := FromSlice(specialSlice(r, sh.k*sh.n, 2, 5+sh.k), sh.k, sh.n)
		bias := FromSlice(specialSlice(r, sh.n, 3, 5), sh.n)
		at, bt := Transpose2D(a), Transpose2D(b)
		run := func() []*Tensor {
			return []*Tensor{
				MatMul(a, b), MatMulTransA(at, b), MatMulTransB(a, bt), MatMulBiasAct(a, b, bias, ActReLU),
			}
		}
		useAVX2 = false
		want := run()
		useAVX2 = true
		for v, got := range run() {
			if i, ok := sameBits(got.data, want[v].data); !ok {
				t.Fatalf("GEMM variant %d, %dx%dx%d: element %d = %v, want %v",
					v, sh.m, sh.k, sh.n, i, got.data[i], want[v].data[i])
			}
		}
	}
}

// TestAccumulateMatchesScratchFormGoLayer repeats
// TestAccumulateMatchesScratchForm with the AVX2 layer off, so both
// layers are held to the scratch form.
func TestAccumulateMatchesScratchFormGoLayer(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	checkAccumulateMatchesScratchForm(t, rand.New(rand.NewSource(28)))
}
