package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// kernelImpl is one implementation of every inner-loop primitive. The
// bit-equality table below compares two of them: the Go loops against the
// plain one-line loops here (every platform), and the AVX2 assembly
// against the Go loops (kernels_amd64_test.go).
type kernelImpl struct {
	axpy   func(av float32, b, o []float32)
	add    func(o, b []float32)
	sub    func(o, a, b []float32)
	mul    func(o, b []float32)
	scale  func(alpha float32, o []float32)
	dilute func(a, b float32, w, r, snap []float32, width int, rows, out []int) (finite bool, n int)
	runs   func(x, s, vals []float32, spans []Span, base uint32) (int, int)
	transB func(out, a, b []float32, k, n, lo, hi int)
	act    func(a Act, dst, src []float32) // ActSigmoid, ActTanh, actGELU or actGELUDeriv
	addTo  func(o, a, b []float32)
	// tile and cellBwd have the signatures of gemmTileGo and
	// lstmCellBwdGo.
	tile    func(a []float32, rs, ps int, b []float32, ldb, kb int, o []float32, ldo, n, rows int, mode tileMode)
	cellBwd func(dz, z []float32, h int, tc, cPrev, dy, dhNext, dcNext, dcPrev []float32)
}

var goKernels = kernelImpl{
	axpy: axpyAddGo, add: vecAddGo, sub: vecSubGo, mul: vecMulGo, scale: vecScaleGo,
	dilute: diluteGo, runs: runsGo,
	transB: transBRowsGo, act: actGo, addTo: vecAddToGo,
	tile: gemmTileGo, cellBwd: lstmCellBwdGo,
}

func naiveAxpy(av float32, b, o []float32) {
	for j := range o {
		o[j] += av * b[j]
	}
}

// naiveKernels spells each primitive as the chain of single steps it
// claims to equal.
var naiveKernels = kernelImpl{
	axpy:  naiveAxpy,
	add:   vecAddGo,
	sub:   vecSubGo,
	mul:   vecMulGo,
	scale: vecScaleGo,
	dilute: func(a, b float32, w, r, snap []float32, width int, rows, out []int) (bool, int) {
		if len(out) == 0 {
			width = len(w)
		}
		if len(rows) == 0 && width > 0 {
			for k := 0; k < len(w)/width; k++ {
				rows = append(rows, k)
			}
		}
		finite, n := true, 0
		for _, k := range rows {
			o, x, rr, sn := append([]float32(nil), w[k*width:(k+1)*width]...), w[k*width:(k+1)*width], r[k*width:], snap[k*width:]
			vecScaleGo(a, x)
			naiveAxpy(b, rr[:width], x)
			copy(sn[:width], x)
			if _, same := bitsEqual(x, o); !same && len(out) > 0 {
				out[n] = k
				n++
			}
			for _, v := range x {
				finite = finite && !math.IsInf(float64(v), 0) && v == v
			}
		}
		return finite, n
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
	// One chain of single steps per element, from +0 or o, stored or
	// added to o once.
	tile: func(a []float32, rs, ps int, b []float32, ldb, kb int, o []float32, ldo, n, rows int, mode tileMode) {
		for r := 0; r < rows; r++ {
			for j := 0; j < n; j++ {
				var s float32
				if mode == tileResume {
					s = o[r*ldo+j]
				}
				for p := 0; p < kb; p++ {
					if av := a[r*rs+p*ps]; av != 0 {
						s += av * b[p*ldb+j]
					}
				}
				if mode == tileAcc {
					o[r*ldo+j] += s
				} else {
					o[r*ldo+j] = s
				}
			}
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
			run("dilute", func(k kernelImpl, ox, oy []float32) { k.dilute(c[0], c[1], ox, b[0], oy, 0, nil, nil) })
			// dilute's finite flag: on finite inputs, and with one ±Inf or
			// NaN, or a product that overflows, planted at each position.
			for i := -1; i < n; i++ {
				w0, rr := specialSlice(r, n, off, 1<<30), specialSlice(r, n, 7-off, 1<<30)
				if i >= 0 {
					w0[i] = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.MaxFloat32}[i%4]
				}
				a := []float32{0.5, 2}[max(i, 0)%2]
				gw, ww := append([]float32(nil), w0...), append([]float32(nil), w0...)
				gf, _ := got.dilute(a, 0.5, gw, rr, make([]float32, n), 0, nil, nil)
				wf, _ := want.dilute(a, 0.5, ww, rr, make([]float32, n), 0, nil, nil)
				if gf != wf {
					t.Fatalf("dilute n=%d off=%d planted %d: finite %v, want %v", n, off, i, gf, wf)
				}
			}
			// dilute's changed rows, for every row width dividing n, over
			// every row and over a list of them: rows whose reference
			// equals w are fixed points at α = 1/2, and a fixed row with
			// one coefficient off changes. A listed row's neighbours stay.
			for width := 1; width <= n; width++ {
				if n%width != 0 {
					continue
				}
				rows := n / width
				w0, rr := specialSlice(r, n, off, 5), specialSlice(r, n, 7-off, 5)
				var list []int
				for k := 0; k < rows; k++ {
					if r.Intn(3) > 0 {
						copy(rr[k*width:(k+1)*width], w0[k*width:(k+1)*width])
						if r.Intn(4) == 0 {
							rr[k*width+r.Intn(width)] = float32(r.NormFloat64())
						}
					}
					if r.Intn(2) == 0 {
						list = append(list, k)
					}
				}
				for _, visit := range [][]int{nil, list} {
					if visit != nil && len(visit) == 0 {
						continue
					}
					var outs [2][]int
					var ns [2]int
					var ws, ss [2][]float32
					for v, k := range []kernelImpl{got, want} {
						ws[v], ss[v] = append([]float32(nil), w0...), make([]float32, n)
						outs[v] = make([]int, rows)
						_, ns[v] = k.dilute(0.5, 0.5, ws[v], rr, ss[v], width, visit, outs[v])
					}
					if !slices.Equal(outs[0][:ns[0]], outs[1][:ns[1]]) {
						t.Fatalf("dilute n=%d off=%d width %d rows %v: changed rows %v, want %v", n, off, width, visit,
							outs[0][:ns[0]], outs[1][:ns[1]])
					}
					for _, p := range [][2][]float32{{ws[0], ws[1]}, {ss[0], ss[1]}} {
						if i, ok := sameBits(p[0], p[1]); !ok {
							t.Fatalf("dilute n=%d off=%d width %d rows %v: element %d = %v, want %v", n, off, width, visit,
								i, p[0][i], p[1][i])
						}
					}
				}
			}
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

	checkTilesBitEqual(t, r, got, want, sizes)
}

// checkTilesBitEqual runs the GEMM tile of got and want over every mode;
// one, two and three rows (a pair, and an odd last row after one); the
// coefficient layouts of SumRowsAcc (ps = 0), MatMul (ps = 1, rs = kb)
// and MatMulTransA (ps = m, rs = 1); kb around the 64-step k-block; and
// every column path: n = 0…40 and around 192 reach the 32-, 8- and
// 1-column groups. Each row's coefficient at each step is dead (±0) or
// live (a normal, ±Inf, a denormal or NaN) at random, so every row pair
// meets each skip case, and a third of the rows are dead at every step,
// so pairs meet the all-dead k-block too; b carries sparse specials, and o carries NaN and
// −0 into tileResume and tileAcc and junk that tileSet must overwrite.
func checkTilesBitEqual(t *testing.T, r *rand.Rand, got, want kernelImpl, sizes []int) {
	t.Helper()
	live := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-40, math.MaxFloat32}
	coef := func() float32 {
		switch r.Intn(12) {
		case 0, 1, 2, 3, 4:
			return []float32{0, float32(math.Copysign(0, -1))}[r.Intn(2)]
		case 5:
			return live[r.Intn(len(live))]
		}
		return float32(r.NormFloat64())
	}
	for _, n := range sizes {
		for _, kb := range []int{1, 63, 64, 65, 129} {
			ldb, ldo := n+3, n+5
			b := specialSlice(r, (kb-1)*ldb+n, (n+1)%8, 2*kb)
			for rows := 1; rows <= 3; rows++ {
				for _, ps := range []int{0, 1, rows} {
					rs := 1
					if ps == 1 {
						rs = kb
					}
					a := make([]float32, n%8+rows*kb)[n%8:]
					for i := range a {
						a[i] = coef()
					}
					for row := 0; row < rows; row++ {
						if r.Intn(3) == 0 { // a row dead at every step
							for p := 0; p < kb; p++ {
								a[row*rs+p*ps] = 0
							}
						}
					}
					for _, mode := range []tileMode{tileSet, tileResume, tileAcc} {
						o := specialSlice(r, (rows-1)*ldo+n, (n+2)%8, 5)
						if len(o) > 0 {
							o[r.Intn(len(o))] = float32(math.NaN())
							o[r.Intn(len(o))] = float32(math.Copysign(0, -1))
						}
						g, w := append([]float32(nil), o...), append([]float32(nil), o...)
						got.tile(a, rs, ps, b, ldb, kb, g, ldo, n, rows, mode)
						want.tile(a, rs, ps, b, ldb, kb, w, ldo, n, rows, mode)
						if i, ok := sameBits(g, w); !ok {
							t.Fatalf("tile mode %d rows %d n=%d kb=%d ps=%d: element %d = %v, want %v",
								mode, rows, n, kb, ps, i, g[i], w[i])
						}
					}
				}
			}
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
			MatMulTransAInto(scratch, a, b)
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
