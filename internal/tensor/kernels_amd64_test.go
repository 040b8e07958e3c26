package tensor

import (
	"math"
	"math/rand"
	"testing"
)

var avx2Kernels = kernelImpl{
	axpy: axpyAddAVX2, add: vecAddAVX2, sub: vecSubAVX2, mul: vecMulAVX2, scale: vecScaleAVX2,
	dilute: diluteAVX2, runs: runsAVX2,
	transB: transBRows, act: func(a Act, dst, src []float32) { actInto(a, dst, src) },
	addTo: vecAddToAVX2, tile: gemmTile, cellBwd: lstmCellBwd,
}

// TestAVX2KernelsMatchGo is the assembly half of the kernel proof: every
// AVX2 primitive equals its Go definition bit for bit on the shared table,
// and so do the GEMM entry points built on them, skip decision included.
func TestAVX2KernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS without AVX2: the Go loops are the only path")
	}
	checkKernelsBitEqual(t, avx2Kernels, goKernels)

	// Whole GEMMs with the layer on and off: odd m, k not a multiple of 4
	// and past the 64-step k-block, every n tail and n past the 256-column
	// block, and a's zeros, signed zeros and infinities exercising the
	// tile's skip decision. The accumulate starts from a destination that
	// is not zero; the Into forms start from junk, a different junk per
	// layer, so an element either layer leaves unwritten differs.
	r := rand.New(rand.NewSource(21))
	defer func() { useAVX2 = true }()
	for _, sh := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {5, 67, 13}, {7, 13, 17}, {9, 64, 16}, {11, 130, 33}, {16, 48, 192}, {33, 9, 8},
		{5, 129, 300}, {4, 65, 257}, {3, 200, 520},
	} {
		a := FromSlice(specialSlice(r, sh.m*sh.k, 1, 5+sh.k), sh.m, sh.k)
		b := FromSlice(specialSlice(r, sh.k*sh.n, 2, 5+sh.k), sh.k, sh.n)
		bias := FromSlice(specialSlice(r, sh.n, 3, 5), sh.n)
		acc0 := FromSlice(specialSlice(r, sh.m*sh.n, 4, 5), sh.m, sh.n)
		acc0.data[r.Intn(len(acc0.data))] = float32(math.NaN())
		at, bt := Transpose2D(a), Transpose2D(b)
		run := func(junk float32) []*Tensor {
			acc, into, biasInto := acc0.Clone(), New(sh.m, sh.n), New(sh.m, sh.n)
			MatMulTransAAcc(acc, at, b)
			into.Fill(junk)
			MatMulTransAInto(into, at, b)
			biasInto.Fill(junk)
			MatMulBiasActInto(biasInto, a, b, bias, ActIdentity)
			return []*Tensor{
				MatMul(a, b), MatMulTransA(at, b), MatMulTransB(a, bt), MatMulBiasAct(a, b, bias, ActReLU),
				acc, into, biasInto,
			}
		}
		useAVX2 = false
		want := run(float32(math.NaN()))
		useAVX2 = true
		for v, got := range run(3) {
			if i, ok := sameBits(got.data, want[v].data); !ok {
				t.Fatalf("GEMM variant %d, %dx%dx%d: element %d = %v, want %v",
					v, sh.m, sh.k, sh.n, i, got.data[i], want[v].data[i])
			}
		}
	}
}

// FuzzGEMMMatchesGo holds the five GEMM entry points — MatMul,
// MatMulBiasAct, MatMulTransA, MatMulTransAAcc and SumRowsAcc — to the
// same bits with the AVX2 layer on and off. It fuzzes the shape (m, k,
// n ≤ 130); the storage order the coefficients are drawn in (trans: a
// drawn as (k,m), so a run of zeros kills one step of neighbouring rows,
// instead of neighbouring steps of one row); and the values, from a seed
// with a fuzzed share of ±0 (zeros/256) and of NaN, ±Inf and denormals
// (specials/256) in a, b and both accumulators.
func FuzzGEMMMatchesGo(f *testing.F) {
	if !useAVX2 {
		f.Skip("CPU or OS without AVX2: the Go loops are the only path")
	}
	f.Add(uint8(64), uint8(32), uint8(64), false, int64(1), uint8(0), uint8(0))
	f.Add(uint8(8), uint8(48), uint8(130), true, int64(2), uint8(128), uint8(8))
	f.Add(uint8(9), uint8(130), uint8(37), false, int64(3), uint8(64), uint8(32))
	f.Add(uint8(1), uint8(0), uint8(33), true, int64(4), uint8(255), uint8(255))
	f.Add(uint8(130), uint8(65), uint8(1), true, int64(5), uint8(200), uint8(2))
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-40, -1e-40}
	f.Fuzz(func(t *testing.T, mm, kk, nn uint8, trans bool, seed int64, zeros, specials uint8) {
		m, k, n := int(mm)%131, int(kk)%131, int(nn)%131
		r := rand.New(rand.NewSource(seed))
		draw := func(shape ...int) *Tensor {
			x := New(shape...)
			for i := range x.data {
				switch u := r.Intn(256); {
				case u < int(zeros):
					x.data[i] = float32(math.Copysign(0, float64(r.Intn(2)*2-1)))
				case u < int(zeros)+int(specials):
					x.data[i] = special[r.Intn(len(special))]
				default:
					x.data[i] = float32(r.NormFloat64())
				}
			}
			return x
		}
		var a, at *Tensor
		if trans {
			at = draw(k, m)
			a = Transpose2D(at)
		} else {
			a = draw(m, k)
			at = Transpose2D(a)
		}
		b, bias, acc0, sum0 := draw(k, n), draw(n), draw(m, n), draw(n)
		run := func() []*Tensor {
			acc, sum := acc0.Clone(), sum0.Clone()
			MatMulTransAAcc(acc, at, b)
			SumRowsAcc(sum, b)
			return []*Tensor{MatMul(a, b), MatMulBiasAct(a, b, bias, ActReLU), MatMulTransA(at, b), acc, sum}
		}
		defer func() { useAVX2 = true }()
		useAVX2 = false
		want := run()
		useAVX2 = true
		for v, got := range run() {
			if i, ok := sameBits(got.data, want[v].data); !ok {
				name := []string{"MatMul", "MatMulBiasAct", "MatMulTransA", "MatMulTransAAcc", "SumRowsAcc"}[v]
				t.Fatalf("%s %dx%dx%d: element %d = %v, want %v", name, m, k, n, i, got.data[i], want[v].data[i])
			}
		}
	})
}

// TestAccumulateMatchesScratchFormGoLayer repeats
// TestAccumulateMatchesScratchForm with the AVX2 layer off, so both
// layers are held to the scratch form.
func TestAccumulateMatchesScratchFormGoLayer(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	checkAccumulateMatchesScratchForm(t, rand.New(rand.NewSource(28)))
}

// TestPropDiluteRowsMatchesDiluteGoLayer repeats
// TestPropDiluteRowsMatchesDilute with the AVX2 layer off.
func TestPropDiluteRowsMatchesDiluteGoLayer(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	checkDiluteRowsMatchesDilute(t)
}
