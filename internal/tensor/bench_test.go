package tensor_test

import (
	"math/rand"
	"testing"

	"avgpipe/internal/tensor"
)

// Kernel benchmarks feed the paired bench gate (make bench-gate): a
// change that runs slower than its base commit in a majority of pairs, or
// allocates more, fails CI (README "Benchmarking"). The matmul shapes come
// from the three workload cost models (transformer translation FFN,
// AWD-LSTM embedding projection, backward weight/input gradients).

func benchMatMul(b *testing.B, m, k, n int) {
	rng := tensor.NewRNG(1)
	a := rng.Uniform(-1, 1, m, k)
	w := rng.Uniform(-1, 1, k, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tensor.MatMul(a, w)
		out.Release()
	}
}

func BenchmarkKernelMatMulLarge(b *testing.B)  { benchMatMul(b, 32, 1024, 4096) }
func BenchmarkKernelMatMulAWDEmb(b *testing.B) { benchMatMul(b, 32, 400, 1150) }

func BenchmarkKernelMatMulTransA(b *testing.B) {
	rng := tensor.NewRNG(2)
	x := rng.Uniform(-1, 1, 32, 512)
	dy := rng.Uniform(-1, 1, 32, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tensor.MatMulTransA(x, dy)
		out.Release()
	}
}

func BenchmarkKernelMatMulTransB(b *testing.B) {
	rng := tensor.NewRNG(3)
	dy := rng.Uniform(-1, 1, 32, 512)
	w := rng.Uniform(-1, 1, 512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tensor.MatMulTransB(dy, w)
		out.Release()
	}
}

// BenchmarkKernelGEMMSmall times the three GEMM variants at the per-micro-
// batch shapes the end-to-end workloads actually run (m×k×n of the forward
// product; TransA and TransB are the weight- and input-gradient products of
// the same layer, TransAAcc the weight-gradient accumulate every lowered
// layer runs), where call overhead and fan-out policy matter as much as
// the inner loop.
func BenchmarkKernelGEMMSmall(b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, k, n int
	}{
		{"gnmt_8x48x192", 8, 48, 192},
		{"bert_64x32x64", 64, 32, 64},
		{"awd_32x32x128", 32, 32, 128},
	} {
		rng := tensor.NewRNG(5)
		x := rng.Uniform(-1, 1, sh.m, sh.k)
		w := rng.Uniform(-1, 1, sh.k, sh.n)
		dy := rng.Uniform(-1, 1, sh.m, sh.n)
		acc := tensor.New(sh.k, sh.n)
		for _, v := range []struct {
			name string
			run  func() *tensor.Tensor
		}{
			{"MatMul", func() *tensor.Tensor { return tensor.MatMul(x, w) }},
			{"TransA", func() *tensor.Tensor { return tensor.MatMulTransA(x, dy) }},
			{"TransB", func() *tensor.Tensor { return tensor.MatMulTransB(dy, w) }},
			{"TransAAcc", func() *tensor.Tensor { tensor.MatMulTransAAcc(acc, x, dy); return acc }},
		} {
			b.Run(sh.name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.run().Release()
				}
			})
		}
	}
}

// BenchmarkKernelAxpyInPlace1M is the elastic-averaging update over one
// large parameter tensor (awd-dist's embedding is 1M floats).
func BenchmarkKernelAxpyInPlace1M(b *testing.B) {
	rng := tensor.NewRNG(6)
	x := rng.Uniform(-1, 1, 1<<20)
	d := rng.Uniform(-1, 1, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AxpyInPlace(1e-3, d)
	}
}

// BenchmarkKernelSigmoid, BenchmarkKernelTanh, BenchmarkKernelGELU and
// BenchmarkKernelGELUDeriv time the activation kernels over 4096
// gate-scale inputs.
func benchAct(b *testing.B, kernel func(dst, src []float32)) {
	x := tensor.NewRNG(10).Uniform(-4, 4, 4096).Data()
	y := make([]float32, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(y, x)
	}
}

func BenchmarkKernelSigmoid(b *testing.B) { benchAct(b, tensor.SigmoidInto) }
func BenchmarkKernelTanh(b *testing.B)    { benchAct(b, tensor.TanhInto) }
func BenchmarkKernelGELU(b *testing.B)    { benchAct(b, tensor.GeluInto) }

func BenchmarkKernelGELUDeriv(b *testing.B) { benchAct(b, tensor.GeluDerivInto) }

func BenchmarkKernelSoftmax(b *testing.B) {
	rng := tensor.NewRNG(4)
	x := rng.Uniform(-4, 4, 256, 4600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tensor.SoftmaxRows(x)
		out.Release()
	}
}

// diluteTable is the awd-dist embedding as Dilute meets it: a 32768×32
// table, its reference and its snapshot.
func diluteTable() (w, ref, snap *tensor.Tensor) {
	rng := tensor.NewRNG(11)
	return rng.Normal(0, 0.1, 32768, 32), rng.Normal(0, 0.1, 32768, 32), tensor.New(32768, 32)
}

// BenchmarkKernelDilute is one dense dilution of the awd-dist embedding:
// w and ref read, w and the snapshot written, 16 MB in all.
func BenchmarkKernelDilute(b *testing.B) {
	w, ref, snap := diluteTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Dilute(0.5, w, ref, snap)
	}
}

// BenchmarkKernelDiluteRows is BenchmarkKernelDilute on the rows a
// steady-state awd-dist Dilute visits: 19% of the table (the fraction
// its row counters read), drawn as the workload's tokens fall — skewed
// toward low rows, so most of them form long runs — with the changed
// rows collected.
func BenchmarkKernelDiluteRows(b *testing.B) {
	const rows, states = 32768, 16
	w, ref, snap := diluteTable()
	set := tensor.NewRowSet(rows)
	r := rand.New(rand.NewSource(11))
	for set.Len() < rows*19/100 {
		u := r.Float64()
		u *= u
		u *= u
		set.Add(r.Intn(states) + states*int(u*u*rows/states))
	}
	visit := set.Ascending()
	changed := tensor.NewRowSet(rows)
	tensor.DiluteRows(0.5, w, ref, snap, visit, &changed) // sizes changed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changed.Clear()
		tensor.DiluteRows(0.5, w, ref, snap, visit, &changed)
	}
}
