package tensor

import "fmt"

// Determinism contract for every matmul variant: output element (i,j) is
// the sum over p, in ascending p order, into a single accumulator. The
// optimizations below — unrolling across j (independent output elements),
// cache blocking over p (which only groups the same ascending-p visits),
// and row-parallelism — never reorder the per-element accumulation, so
// results are bit-identical to the naive triple loop.
//
// The SIMD layer (kernels_amd64.s) lives under the same contract by one
// rule: a SIMD lane is an output element; no lane ever holds a partial
// sum; multiply and add are separate instructions (no fused multiply-add,
// in assembly or in Go). A lane then performs exactly the scalar loop's
// rounding sequence, so the Go loops in kernels.go stay the definition and
// the assembly is tested bit-equal to them. A reduction with one running
// accumulator (L2Norm, Dot, SumRows, softmax and layernorm sums) has no
// independent output elements to spread over lanes and stays scalar.

// matmulBlock is the cache-blocking factor for the inner kernels. 64
// float32s per row segment keeps three blocks comfortably inside L1.
const matmulBlock = 64

// matmulRowTile is how many output rows the axpy kernels advance together
// (axpyRange2 pairs rows to share each load of b); matmul chunk boundaries
// are multiples of it so a chunk never splits a pair.
const matmulRowTile = 2

// axpyRange accumulates orow += Σ_q ar[q]·b[q,:] for one block of k-steps:
// ar holds the block's coefficients and bblk its rows of b (len(ar) rows of
// n). It takes the fused 4-step path whenever the next four coefficients
// are all non-zero and falls back to single steps (with the av==0 skip)
// otherwise, which preserves the skip's semantics exactly.
func axpyRange(ar, bblk []float32, n int, orow []float32) {
	p := 0
	for ; p+4 <= len(ar); p += 4 {
		a0, a1, a2, a3 := ar[p], ar[p+1], ar[p+2], ar[p+3]
		if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
			axpy4Add(a0, a1, a2, a3,
				bblk[p*n:(p+1)*n], bblk[(p+1)*n:(p+2)*n],
				bblk[(p+2)*n:(p+3)*n], bblk[(p+3)*n:(p+4)*n], orow)
			continue
		}
		for q := p; q < p+4; q++ {
			if av := ar[q]; av != 0 {
				axpyAdd(av, bblk[q*n:(q+1)*n], orow)
			}
		}
	}
	for ; p < len(ar); p++ {
		if av := ar[p]; av != 0 {
			axpyAdd(av, bblk[p*n:(p+1)*n], orow)
		}
	}
}

// axpyRange2 is axpyRange over two output rows, pairing them through
// axpy4Add2 when all eight coefficients are non-zero and degrading to the
// single-row path (which keeps the av==0 skip exact) otherwise.
func axpyRange2(ar0, ar1, bblk []float32, n int, o0, o1 []float32) {
	ar1 = ar1[:len(ar0)]
	p := 0
	for ; p+4 <= len(ar0); p += 4 {
		x0, x1, x2, x3 := ar0[p], ar0[p+1], ar0[p+2], ar0[p+3]
		y0, y1, y2, y3 := ar1[p], ar1[p+1], ar1[p+2], ar1[p+3]
		if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 &&
			y0 != 0 && y1 != 0 && y2 != 0 && y3 != 0 {
			axpy4Add2(x0, x1, x2, x3, y0, y1, y2, y3,
				bblk[p*n:(p+1)*n], bblk[(p+1)*n:(p+2)*n],
				bblk[(p+2)*n:(p+3)*n], bblk[(p+3)*n:(p+4)*n], o0, o1)
			continue
		}
		axpyRange(ar0[p:p+4], bblk[p*n:(p+4)*n], n, o0)
		axpyRange(ar1[p:p+4], bblk[p*n:(p+4)*n], n, o1)
	}
	axpyRange(ar0[p:], bblk[p*n:], n, o0)
	axpyRange(ar1[p:], bblk[p*n:], n, o1)
}

// coefBlock returns A[i, p0:p1] as one contiguous slice, where A's element
// (i,p) is a[i*rs+p*ps]: a view when A is stored row-major (ps == 1),
// otherwise gathered into buf.
func coefBlock(a []float32, i, rs, ps, p0, p1 int, buf []float32) []float32 {
	if ps == 1 {
		return a[i*rs+p0 : i*rs+p1]
	}
	buf = buf[:p1-p0]
	for q := range buf {
		buf[q] = a[i*rs+(p0+q)*ps]
	}
	return buf
}

// gemmAccRows accumulates rows [lo,hi) of out (·,n) += A @ b for b (k,n),
// where A's element (i,p) is a[i*rs+p*ps] — a itself for MatMul (rs=k,
// ps=1), its transpose for MatMulTransA (rs=1, ps=m). Rows are paired so
// each b panel pass feeds two output rows, and blocked over k so the panel
// is reused while hot; a leftover odd row takes the single-row path.
// Neither changes any element's accumulation order.
func gemmAccRows(out, a []float32, rs, ps int, b []float32, k, n, lo, hi int) {
	var g0, g1 [matmulBlock]float32
	for i := lo; i < hi; i += matmulRowTile {
		o0 := out[i*n : (i+1)*n]
		for p0 := 0; p0 < k; p0 += matmulBlock {
			p1 := min(p0+matmulBlock, k)
			bblk := b[p0*n : p1*n]
			ar0 := coefBlock(a, i, rs, ps, p0, p1, g0[:])
			if i+1 == hi {
				axpyRange(ar0, bblk, n, o0)
				continue
			}
			ar1 := coefBlock(a, i+1, rs, ps, p0, p1, g1[:])
			axpyRange2(ar0, ar1, bblk, n, o0, out[(i+1)*n:(i+2)*n])
		}
	}
}

// MatMul returns a @ b for 2-D tensors: (m,k) x (k,n) -> (m,n).
// Rows of the output are computed in parallel; the inner loops are blocked
// over k so each B panel is reused while hot in cache. The result is drawn
// from the buffer arena; Release it when its lifetime is known.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v x %v", a.shape, b.shape))
	}
	out := Borrow(a.shape[0], b.shape[1])
	matMulAccInto(out, a, b)
	return out
}

// matMulAccInto accumulates a @ b into out (out += a@b elementwise). out
// must be zeroed for a plain product.
func matMulAccInto(out, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	parallelGEMM(m, k, n, matmulRowTile, operands{out: out, a: a, b: b}, func(g operands, lo, hi int) {
		k, n := g.a.shape[1], g.b.shape[1]
		gemmAccRows(g.out.data, g.a.data, k, 1, g.b.data, k, n, lo, hi)
	})
}

// operands carries a kernel's tensors to its row function as a value, so
// the row function captures nothing and a serial call allocates nothing
// (parallelFor).
type operands struct {
	out, a, b, bias *Tensor
	act             Act
}

// MatMulTransB returns a @ bᵀ: (m,k) x (n,k) -> (m,n). Used by backward
// passes to avoid materializing transposes. The result is arena-backed.
func MatMulTransB(a, b *Tensor) *Tensor {
	checkTransB(a, b)
	out := borrowRaw(a.shape[0], b.shape[0])
	matMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto computes dst = a @ bᵀ, fully overwriting dst — the
// no-allocation variant for writing straight into a pre-sliced output
// (e.g. one time step's rows of a sequence gradient). dst must be (m,n)
// for a (m,k) and b (n,k).
func MatMulTransBInto(dst, a, b *Tensor) {
	checkTransB(a, b)
	if len(dst.shape) != 2 || dst.shape[0] != a.shape[0] || dst.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransBInto dst %v for %v x %vᵀ", dst.shape, a.shape, b.shape))
	}
	matMulTransBInto(dst, a, b)
}

func checkTransB(a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes %v x %vᵀ", a.shape, b.shape))
	}
}

func matMulTransBInto(out, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	parallelGEMM(m, k, n, transBRowTile, operands{out: out, a: a, b: b}, func(g operands, lo, hi int) {
		transBRows(g.out.data, g.a.data, g.b.data, g.a.shape[1], g.b.shape[0], lo, hi)
	})
}

// MatMulTransA returns aᵀ @ b: (k,m) x (k,n) -> (m,n). Used to accumulate
// weight gradients (xᵀ @ dy) without materializing transposes. The result
// is arena-backed.
func MatMulTransA(a, b *Tensor) *Tensor {
	checkTransA(a, b)
	out := Borrow(a.shape[1], b.shape[1])
	matMulTransAAccInto(out, a, b)
	return out
}

// MatMulTransAAcc sets dst += aᵀ @ b without forming the product — the
// weight-gradient accumulate of every lowered layer. Each element of dst
// gets one accumulator that starts at +0, takes the product's chain (p
// ascending, zero coefficients skipped) and is then added to dst once
// (transAAcc): the rounding sequence of a zeroed scratch product added
// with AddInPlace, so the result is bit-identical to
// dst.AddInPlace(MatMulTransA(a, b)) with no scratch at all. Accumulating
// straight into a non-zero dst would change that sequence.
func MatMulTransAAcc(dst, a, b *Tensor) {
	checkTransA(a, b)
	if len(dst.shape) != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc dst %v for %vᵀ x %v", dst.shape, a.shape, b.shape))
	}
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	parallelGEMM(m, k, n, 1, operands{out: dst, a: a, b: b}, func(g operands, lo, hi int) {
		k, m, n := g.a.shape[0], g.a.shape[1], g.b.shape[1]
		for i := lo; i < hi; i++ {
			transAAcc(g.a.data[i:], m, g.b.data, k, g.out.data[i*n:(i+1)*n])
		}
	})
}

// MatMulTransAInto computes dst = aᵀ @ b, fully overwriting dst: the
// no-allocation MatMulTransA (dst is cleared first, as the arena borrow
// is). dst must be (m,n) for a (k,m) and b (k,n).
func MatMulTransAInto(dst, a, b *Tensor) {
	checkTransA(a, b)
	if len(dst.shape) != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransAInto dst %v for %vᵀ x %v", dst.shape, a.shape, b.shape))
	}
	dst.Zero()
	matMulTransAAccInto(dst, a, b)
}

func checkTransA(a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes %vᵀ x %v", a.shape, b.shape))
	}
}

// matMulTransAAccInto accumulates aᵀ @ b into out; out must be zeroed for
// a plain product.
func matMulTransAAccInto(out, a, b *Tensor) {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	parallelGEMM(m, k, n, matmulRowTile, operands{out: out, a: a, b: b}, func(g operands, lo, hi int) {
		k, m, n := g.a.shape[0], g.a.shape[1], g.b.shape[1]
		gemmAccRows(g.out.data, g.a.data, 1, m, g.b.data, k, n, lo, hi)
	})
}

// Transpose2D returns the transpose of a 2-D tensor (arena-backed).
func Transpose2D(t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Transpose2D requires a 2-D tensor")
	}
	r, c := t.shape[0], t.shape[1]
	out := borrowRaw(c, r)
	ParallelForCost(r, c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < c; j++ {
				out.data[j*r+i] = t.data[i*c+j]
			}
		}
	})
	return out
}

// MatVec returns m @ v: (r,c) x (c) -> (r).
func MatVec(m, v *Tensor) *Tensor {
	if len(m.shape) != 2 || len(v.shape) != 1 || m.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: MatVec shapes %v x %v", m.shape, v.shape))
	}
	r, c := m.shape[0], m.shape[1]
	out := borrowRaw(r)
	ParallelForCost(r, c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = dotSeq(m.data[i*c:(i+1)*c], v.data)
		}
	})
	return out
}

// Outer returns the outer product of vectors a (m) and b (n) as (m,n).
func Outer(a, b *Tensor) *Tensor {
	if len(a.shape) != 1 || len(b.shape) != 1 {
		panic("tensor: Outer requires 1-D tensors")
	}
	m, n := a.shape[0], b.shape[0]
	out := borrowRaw(m, n)
	ParallelForCost(m, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			av := a.data[i]
			row := out.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				row[j] = av * b.data[j]
			}
		}
	})
	return out
}
