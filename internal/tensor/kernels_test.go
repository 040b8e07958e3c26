package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// kernelImpl is one implementation of every inner-loop primitive. The
// bit-equality table below compares two of them: the Go loops against the
// plain one-line loops here (every platform), and the AVX2 assembly
// against the Go loops (kernels_amd64_test.go).
type kernelImpl struct {
	axpy   func(av float32, b, o []float32)
	axpy4  func(a0, a1, a2, a3 float32, b0, b1, b2, b3, o []float32)
	axpy42 func(x0, x1, x2, x3, y0, y1, y2, y3 float32, b0, b1, b2, b3, ox, oy []float32)
	add    func(o, b []float32)
	sub    func(o, a, b []float32)
	mul    func(o, b []float32)
	scale  func(alpha float32, o []float32)
	dilute func(a, b float32, w, r, snap []float32)
	zeros  func(x []float32) int
	runs   func(x, s, vals []float32, spans []Span, base uint32) (int, int)
	transB func(out, a, b []float32, k, n, lo, hi int)
	act    func(a Act, dst, src []float32) // ActSigmoid, ActTanh, actGELU or actGELUDeriv
	addTo  func(o, a, b []float32)
	// transAAcc and cellBwd have the signatures of transAAccGo and
	// lstmCellBwdGo.
	transAAcc func(a []float32, ps int, b []float32, k int, o []float32)
	cellBwd   func(dz, z []float32, h int, tc, cPrev, dy, dhNext, dcNext, dcPrev []float32)
}

var goKernels = kernelImpl{
	axpy: axpyAddGo, axpy4: axpy4AddGo, axpy42: axpy4Add2Go,
	add: vecAddGo, sub: vecSubGo, mul: vecMulGo, scale: vecScaleGo,
	dilute: diluteGo, zeros: zeroBlocksGo, runs: runsGo,
	transB: transBRowsGo, act: actGo, addTo: vecAddToGo,
	transAAcc: transAAccGo, cellBwd: lstmCellBwdGo,
}

func naiveAxpy(av float32, b, o []float32) {
	for j := range o {
		o[j] += av * b[j]
	}
}

func naiveAxpy4(a0, a1, a2, a3 float32, b0, b1, b2, b3, o []float32) {
	naiveAxpy(a0, b0, o)
	naiveAxpy(a1, b1, o)
	naiveAxpy(a2, b2, o)
	naiveAxpy(a3, b3, o)
}

// naiveKernels spells each primitive as the chain of single steps it
// claims to equal.
var naiveKernels = kernelImpl{
	axpy:  naiveAxpy,
	axpy4: naiveAxpy4,
	axpy42: func(x0, x1, x2, x3, y0, y1, y2, y3 float32, b0, b1, b2, b3, ox, oy []float32) {
		naiveAxpy4(x0, x1, x2, x3, b0, b1, b2, b3, ox)
		naiveAxpy4(y0, y1, y2, y3, b0, b1, b2, b3, oy)
	},
	add:   vecAddGo,
	sub:   vecSubGo,
	mul:   vecMulGo,
	scale: vecScaleGo,
	dilute: func(a, b float32, w, r, snap []float32) {
		vecScaleGo(a, w)
		naiveAxpy(b, r, w)
		copy(snap, w)
	},
	zeros: func(x []float32) int {
		for i := 0; i+8 <= len(x); i += 8 {
			for _, v := range x[i : i+8] {
				if v != 0 {
					return i
				}
			}
		}
		return len(x) &^ 7
	},
	runs: naiveRuns,
	transB: func(out, a, b []float32, k, n, lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[i*k+p] * b[j*k+p]
				}
				out[i*n+j] = s
			}
		}
	},
	act: func(a Act, dst, src []float32) {
		for _, d := range actDefs {
			if d.act == a {
				for i, v := range src {
					dst[i] = d.def(v)
				}
			}
		}
	},
	addTo: vecAddToGo,
	// One chain per element from +0 into a scratch value, added once.
	transAAcc: func(a []float32, ps int, b []float32, k int, o []float32) {
		for j := range o {
			var s float32
			for p := 0; p < k; p++ {
				if av := a[p*ps]; av != 0 {
					s += av * b[p*len(o)+j]
				}
			}
			o[j] += s
		}
	},
	cellBwd: lstmCellBwdGo,
}

// naiveRuns forms the dense difference first, then scans it for runs.
func naiveRuns(x, s, vals []float32, spans []Span, base uint32) (nv, ns int) {
	d := append([]float32(nil), x...)
	if len(s) > 0 {
		vecSubGo(d, x, s)
	}
	for i := 0; i < len(d); {
		if math.Float32bits(d[i]) == 0 {
			i++
			continue
		}
		start := i
		for i < len(d) && math.Float32bits(d[i]) != 0 {
			vals[nv] = d[i]
			nv++
			i++
		}
		spans[ns] = Span{Start: base + uint32(start), Len: uint32(i - start)}
		ns++
	}
	return nv, ns
}

// plantZeros makes d = x − s exactly +0 (x = s) and −0 (x = −0, s = +0)
// over random stretches — single coefficients up to several 8-blocks — so
// the run kernels meet all-zero, all-non-zero and mixed blocks; with s
// empty it plants ±0 in x itself.
func plantZeros(r *rand.Rand, x, s []float32) {
	for i := 0; i < len(x); {
		n := 1 + r.Intn(20)
		end := min(i+n, len(x))
		switch r.Intn(3) {
		case 0:
			for j := i; j < end; j++ {
				if len(s) > 0 {
					x[j] = s[j]
				} else {
					x[j] = 0
				}
			}
		case 1:
			if r.Intn(4) == 0 {
				x[i] = float32(math.Copysign(0, -1))
				if len(s) > 0 {
					s[i] = 0
				}
			}
		}
		i = end
	}
}

// specials are the values rounding and skip decisions turn on.
var specials = []float32{
	0, float32(math.Copysign(0, -1)), 1e-40, -1e-40, math.SmallestNonzeroFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, 1, -1,
}

// specialSlice returns n floats, one in every of them a special, starting
// off floats into their backing array so vector loads are unaligned.
func specialSlice(r *rand.Rand, n, off, every int) []float32 {
	s := make([]float32, off+n)[off:]
	for i := range s {
		if r.Intn(every) == 0 {
			s[i] = specials[r.Intn(len(specials))]
		} else {
			s[i] = float32(r.NormFloat64())
		}
	}
	return s
}

// sameBits reports the first index where got and want differ in their
// bits; two NaNs count as equal whatever their payloads (an x86 NaN
// result carries an operand's payload, and vector and scalar encodings
// may order the operands differently).
func sameBits(got, want []float32) (int, bool) {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i, false
		}
	}
	return 0, true
}

// checkKernelsBitEqual runs every primitive of got and want on the same
// inputs and requires identical bits, over every vector-tail length
// (n = 0…40 and around 192), every load misalignment (sub-slices 0–7
// floats into their arrays), and inputs seeded with ±0, denormals and ±Inf.
func checkKernelsBitEqual(t *testing.T, got, want kernelImpl) {
	t.Helper()
	r := rand.New(rand.NewSource(20))
	sizes := []int{191, 192, 193}
	for n := 0; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for off := 0; off < 8; off++ {
			c := specialSlice(r, 8, 0, 5)
			b := [4][]float32{}
			for q := range b {
				b[q] = specialSlice(r, n, (off+q)%8, 5)
			}
			o0, o1 := specialSlice(r, n, off, 5), specialSlice(r, n, 7-off, 5)
			run := func(name string, f func(k kernelImpl, ox, oy []float32)) {
				t.Helper()
				gx, gy := specialSlice(r, n, off, 5), specialSlice(r, n, 7-off, 5)
				wx, wy := make([]float32, n), make([]float32, n)
				copy(gx, o0)
				copy(gy, o1)
				copy(wx, o0)
				copy(wy, o1)
				f(got, gx, gy)
				f(want, wx, wy)
				for _, p := range [][2][]float32{{gx, wx}, {gy, wy}} {
					if i, ok := sameBits(p[0], p[1]); !ok {
						t.Fatalf("%s n=%d off=%d: element %d = %v (%#x), want %v (%#x)", name, n, off, i,
							p[0][i], math.Float32bits(p[0][i]), p[1][i], math.Float32bits(p[1][i]))
					}
				}
			}
			run("axpyAdd", func(k kernelImpl, ox, _ []float32) { k.axpy(c[0], b[0], ox) })
			run("axpy4Add", func(k kernelImpl, ox, _ []float32) {
				k.axpy4(c[0], c[1], c[2], c[3], b[0], b[1], b[2], b[3], ox)
			})
			run("axpy4Add2", func(k kernelImpl, ox, oy []float32) {
				k.axpy42(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], b[0], b[1], b[2], b[3], ox, oy)
			})
			run("vecAdd", func(k kernelImpl, ox, _ []float32) { k.add(ox, b[0]) })
			run("vecAddTo", func(k kernelImpl, ox, oy []float32) {
				k.addTo(ox, ox, b[0])   // in place
				k.addTo(oy, b[1], b[2]) // three operands
			})
			// The LSTM cell backward over one row of n elements: gates
			// packed with stride n, six carries, two outputs.
			z := specialSlice(r, 4*n, off, 5)
			var carry [5][]float32
			for q := range carry {
				carry[q] = specialSlice(r, n, (off+q)%8, 5)
			}
			gz, wz := make([]float32, 4*n), make([]float32, 4*n)
			gc, wc := make([]float32, n), make([]float32, n)
			got.cellBwd(gz, z, n, carry[0], carry[1], carry[2], carry[3], carry[4], gc)
			want.cellBwd(wz, z, n, carry[0], carry[1], carry[2], carry[3], carry[4], wc)
			for _, p := range [][2][]float32{{gz, wz}, {gc, wc}} {
				if i, ok := sameBits(p[0], p[1]); !ok {
					t.Fatalf("lstmCellBwd n=%d off=%d: element %d = %v, want %v", n, off, i, p[0][i], p[1][i])
				}
			}
			run("vecSub", func(k kernelImpl, ox, oy []float32) {
				k.sub(ox, ox, b[0])   // in place
				k.sub(oy, b[1], b[2]) // three operands
			})
			run("vecMul", func(k kernelImpl, ox, _ []float32) { k.mul(ox, b[0]) })
			run("vecScale", func(k kernelImpl, ox, _ []float32) { k.scale(c[0], ox) })
			run("dilute", func(k kernelImpl, ox, oy []float32) { k.dilute(c[0], c[1], ox, b[0], oy) })
			for _, a := range []Act{ActSigmoid, ActTanh, actGELU, actGELUDeriv} {
				run(fmt.Sprintf("act %d", a), func(k kernelImpl, ox, oy []float32) {
					k.act(a, ox, ox) // in place
					k.act(a, oy, b[0])
				})
			}

			// Run extraction, with a snapshot to subtract and without.
			for _, sub := range []bool{true, false} {
				x, sn := specialSlice(r, n, off, 5), []float32(nil)
				if sub {
					sn = specialSlice(r, n, 7-off, 5)
				}
				plantZeros(r, x, sn)
				gv, wv := make([]float32, n), make([]float32, n)
				gs, ws := make([]Span, n/2+1), make([]Span, n/2+1)
				gn, gns := got.runs(x, sn, gv, gs, 3)
				wn, wns := want.runs(x, sn, wv, ws, 3)
				if gn != wn || gns != wns {
					t.Fatalf("runs n=%d off=%d sub=%v: %d values in %d runs, want %d in %d", n, off, sub, gn, gns, wn, wns)
				}
				if i, ok := sameBits(gv[:gn], wv[:wn]); !ok {
					t.Fatalf("runs n=%d off=%d sub=%v: value %d = %v, want %v", n, off, sub, i, gv[i], wv[i])
				}
				for i := range ws[:wns] {
					if gs[i] != ws[i] {
						t.Fatalf("runs n=%d off=%d sub=%v: span %d = %v, want %v", n, off, sub, i, gs[i], ws[i])
					}
				}
				plantZeros(r, x, nil)
				if g, w := got.zeros(x), want.zeros(x); g != w {
					t.Fatalf("zeroBlocks n=%d off=%d: %d, want %d", n, off, g, w)
				}
			}
		}
	}

	// a @ bᵀ: row counts around the 8-row block, k around the unroll and the
	// k-block, n around the four-rows-of-b pass.
	for _, sh := range []struct{ m, k, n int }{
		{8, 1, 1}, {8, 7, 5}, {9, 13, 4}, {16, 48, 7}, {17, 192, 48}, {23, 257, 9}, {8, 600, 3}, {7, 9, 9},
	} {
		// Sparse specials, or every chain of k products ends in NaN.
		a := specialSlice(r, sh.m*sh.k, 1, 4*sh.k)
		b := specialSlice(r, sh.n*sh.k, 3, 4*sh.k)
		g, w := specialSlice(r, sh.m*sh.n, 5, 5), make([]float32, sh.m*sh.n)
		got.transB(g, a, b, sh.k, sh.n, 0, sh.m)
		want.transB(w, a, b, sh.k, sh.n, 0, sh.m)
		if i, ok := sameBits(g, w); !ok {
			t.Fatalf("transB %dx%dx%d: element %d = %v, want %v", sh.m, sh.k, sh.n, i, g[i], w[i])
		}
	}

	// One output row of aᵀb accumulated: k around the 4-step unroll and
	// the 64-step block, n around the 64- and 8-column register blocks,
	// a coefficient stride, dense ±0 coefficients, and NaN in b and o.
	nan := float32(math.NaN())
	for _, sh := range []struct{ k, ps, n int }{
		{0, 1, 9}, {1, 1, 1}, {3, 2, 7}, {8, 48, 192}, {64, 1, 65}, {65, 3, 130}, {5, 1, 64}, {9, 5, 71},
	} {
		a := specialSlice(r, max(sh.k*sh.ps, 1), 1, 3)
		b := specialSlice(r, sh.k*sh.n, 2, 5)
		if len(b) > 0 {
			b[r.Intn(len(b))] = nan
		}
		g := specialSlice(r, sh.n, 3, 5)
		g[r.Intn(sh.n)] = nan
		w := append([]float32(nil), g...)
		got.transAAcc(a, sh.ps, b, sh.k, g)
		want.transAAcc(a, sh.ps, b, sh.k, w)
		if i, ok := sameBits(g, w); !ok {
			t.Fatalf("transAAcc k=%d ps=%d n=%d: element %d = %v, want %v", sh.k, sh.ps, sh.n, i, g[i], w[i])
		}
	}
}

// TestAccumulateMatchesScratchForm: MatMulTransAAcc and SumRowsAcc
// equal the scratch form they replace — the product formed in zeroed
// scratch by the GEMM, then added with AddInPlace — bit for bit, through
// the kernel layer this platform selected (kernels_amd64_test.go repeats
// it on the Go loops).
func TestAccumulateMatchesScratchForm(t *testing.T) {
	checkAccumulateMatchesScratchForm(t, rand.New(rand.NewSource(27)))
}

// checkAccumulateMatchesScratchForm runs the accumulate kernels against
// the scratch form on operands with dense zero coefficients, −0, ±Inf and
// NaN in dst and b, k around the 4-step unroll and the 64-step block, and
// odd row counts.
func checkAccumulateMatchesScratchForm(t *testing.T, r *rand.Rand) {
	t.Helper()
	nan := float32(math.NaN())
	sprinkle := func(x []float32) {
		x[r.Intn(len(x))] = nan
		x[r.Intn(len(x))] = float32(math.Copysign(0, -1))
	}
	for _, k := range []int{1, 3, 8, 64, 65} {
		for _, sh := range []struct{ m, n int }{{1, 1}, {3, 7}, {5, 64}, {7, 65}, {9, 192}, {33, 130}} {
			a := FromSlice(specialSlice(r, k*sh.m, 1, 3), k, sh.m)
			for i := range a.data {
				if r.Intn(4) == 0 {
					a.data[i] = 0
				}
			}
			b := FromSlice(specialSlice(r, k*sh.n, 2, 5*k), k, sh.n)
			sprinkle(b.data)
			dst := FromSlice(specialSlice(r, sh.m*sh.n, 3, 5), sh.m, sh.n)
			sprinkle(dst.data)

			want, scratch := dst.Clone(), New(sh.m, sh.n)
			matMulTransAAccInto(scratch, a, b)
			want.AddInPlace(scratch)
			MatMulTransAAcc(dst, a, b)
			if i, ok := sameBits(dst.data, want.data); !ok {
				t.Fatalf("MatMulTransAAcc %dx%dx%d: element %d = %v, want %v",
					k, sh.m, sh.n, i, dst.data[i], want.data[i])
			}

			bias := FromSlice(specialSlice(r, sh.n, 4, 5), sh.n)
			sprinkle(bias.data)
			wantB, scratchB := bias.Clone(), New(sh.n)
			sumRowsAccInto(scratchB, b)
			wantB.AddInPlace(scratchB)
			SumRowsAcc(bias, b)
			if i, ok := sameBits(bias.data, wantB.data); !ok {
				t.Fatalf("SumRowsAcc %dx%d: element %d = %v, want %v",
					k, sh.n, i, bias.data[i], wantB.data[i])
			}
		}
	}
}

// TestGoKernelsMatchNaive is the generic half of the kernel proof: the
// unrolled and fused Go loops equal the chains of single steps they stand
// for, bit for bit. It runs on every platform.
func TestGoKernelsMatchNaive(t *testing.T) {
	checkKernelsBitEqual(t, goKernels, naiveKernels)
}

// TestPropGEMMVariantsMatchNaive: for random shapes (empty, odd, around
// every tile) all three GEMM variants equal the naive triple loop — one
// accumulator per element, ascending p — in every bit, through whichever
// kernel layer this platform selected.
func TestPropGEMMVariantsMatchNaive(t *testing.T) {
	prop := func(seed int64, mm, kk, nn uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := int(mm%41), int(kk%71), int(nn%41)
		a, b := smallTensor(r, m, k), smallTensor(r, k, n)
		for i := range a.data {
			if r.Intn(8) == 0 {
				a.data[i] = 0 // the skip path
			}
		}
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a.data[i*k+p] * b.data[p*n+j]
				}
				want.data[i*n+j] = s
			}
		}
		for name, got := range map[string]*Tensor{
			"MatMul":       MatMul(a, b),
			"MatMulTransA": MatMulTransA(Transpose2D(a), b),
			"MatMulTransB": MatMulTransB(a, Transpose2D(b)),
		} {
			if i, ok := sameBits(got.data, want.data); !ok || !got.SameShape(want) {
				t.Logf("%s %dx%dx%d: element %d = %v, want %v", name, m, k, n, i, got.data[i], want.data[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
