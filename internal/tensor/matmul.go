package tensor

import "fmt"

// Determinism contract for every matmul variant: output element (i,j) is
// the sum over p, in ascending p order, into a single accumulator that
// skips the steps whose coefficient is ±0. The optimizations below —
// register tiles across j and across a row pair (independent output
// elements), cache blocking over p and over j (which only group the same
// ascending-p visits; a later k-block resumes from the float32 the earlier
// one stored, which reloads as itself), and row-parallelism — never
// reorder the per-element accumulation, so results are bit-identical to
// the naive triple loop.
//
// The SIMD layer (kernels_amd64.s) lives under the same contract by one
// rule: a SIMD lane is an output element; no lane ever holds a partial
// sum; multiply and add are separate instructions (no fused multiply-add,
// in assembly or in Go). A lane then performs exactly the scalar loop's
// rounding sequence, so the Go loops in kernels.go stay the definition and
// the assembly is tested bit-equal to them. The skip decision belongs to
// the tile too: gemmTileAVX2 makes it per row per step, as gemmTileGo
// does. A reduction with one running accumulator (L2Norm, Dot, SumRows,
// softmax and layernorm sums) has no independent output elements to
// spread over lanes and stays scalar.

// matmulBlock is the k-blocking factor of a product: a tile holds its
// accumulators in registers across this many k-steps before it stores
// them, and the block of b it reads stays in cache across every row pair.
const matmulBlock = 64

// gemmColBlock is how many output columns every row pair of a chunk
// advances through before the next column block, so that the k-block of b
// they all read (matmulBlock rows of gemmColBlock floats, 64 KB) stays in
// cache.
const gemmColBlock = 256

// matmulRowTile is how many output rows a GEMM tile advances together
// (they share each load of b); matmul chunk boundaries are multiples of it
// so a chunk never splits a pair.
const matmulRowTile = 2

// gemmRows computes rows [lo,hi) of out (·,n) = A @ b for b (k,n) — or,
// with acc, adds A @ b to them as the accumulate kernel does — where A's
// element (i,p) is a[i*rs+p*ps]: a itself for MatMul (rs=k, ps=1), its
// transpose for MatMulTransA (rs=1, ps=m). It is only the blocking loop
// around gemmTile: k in blocks of matmulBlock (all of k in one block with
// acc, whose accumulators must see the whole chain before their one add),
// and columns in blocks of gemmColBlock, each block running every row.
// The first k-block starts each element at +0, so out need not be
// cleared.
func gemmRows(out, a []float32, rs, ps int, b []float32, k, n, lo, hi int, acc bool) {
	kblock, mode := matmulBlock, tileSet
	if acc {
		kblock, mode = k, tileAcc
	}
	if k == 0 {
		// An empty product is +0, and the accumulate kernel adds that +0
		// once; neither reads a or b.
		gemmTile(nil, 0, 0, nil, 0, 0, out[lo*n:], n, n, hi-lo, mode)
		return
	}
	for p0 := 0; p0 < k; p0 += kblock {
		kb := min(kblock, k-p0)
		for j0 := 0; j0 < n; j0 += gemmColBlock {
			gemmTile(a[lo*rs+p0*ps:], rs, ps, b[p0*n+j0:], n, kb, out[lo*n+j0:], n, min(gemmColBlock, n-j0), hi-lo, mode)
		}
		mode = tileResume
	}
}

// MatMul returns a @ b for 2-D tensors: (m,k) x (k,n) -> (m,n).
// Rows of the output are computed in parallel; the inner loops are blocked
// over k and n so each B panel is reused while hot in cache. The result is
// drawn from the buffer arena; Release it when its lifetime is known.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v x %v", a.shape, b.shape))
	}
	out := borrowRaw(a.shape[0], b.shape[1])
	matMulInto(out, a, b)
	return out
}

// matMulInto sets out = a @ b, overwriting every element.
func matMulInto(out, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	parallelGEMM(m, k, n, matmulRowTile, operands{out: out, a: a, b: b}, func(g operands, lo, hi int) {
		k, n := g.a.shape[1], g.b.shape[1]
		gemmRows(g.out.data, g.a.data, k, 1, g.b.data, k, n, lo, hi, false)
	})
}

// operands carries a kernel's tensors to its row function as a value, so
// the row function captures nothing and a serial call allocates nothing
// (parallelFor).
type operands struct {
	out, a, b, bias *Tensor
	act             Act
	acc             bool
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
	out := borrowRaw(a.shape[1], b.shape[1])
	matMulTransAGEMM(out, a, b, false)
	return out
}

// MatMulTransAAcc sets dst += aᵀ @ b without forming the product — the
// weight-gradient accumulate of every lowered layer. Each element of dst
// gets one accumulator that starts at +0, takes the product's chain (p
// ascending, zero coefficients skipped) and is then added to dst once
// (tileAcc): the rounding sequence of a zeroed scratch product added with
// AddInPlace, so the result is bit-identical to
// dst.AddInPlace(MatMulTransA(a, b)) with no scratch at all. Accumulating
// straight into a non-zero dst would change that sequence.
func MatMulTransAAcc(dst, a, b *Tensor) {
	checkTransA(a, b)
	if len(dst.shape) != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc dst %v for %vᵀ x %v", dst.shape, a.shape, b.shape))
	}
	matMulTransAGEMM(dst, a, b, true)
}

// MatMulTransAInto computes dst = aᵀ @ b, fully overwriting dst: the
// no-allocation MatMulTransA. dst must be (m,n) for a (k,m) and b (k,n).
func MatMulTransAInto(dst, a, b *Tensor) {
	checkTransA(a, b)
	if len(dst.shape) != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransAInto dst %v for %vᵀ x %v", dst.shape, a.shape, b.shape))
	}
	matMulTransAGEMM(dst, a, b, false)
}

func checkTransA(a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes %vᵀ x %v", a.shape, b.shape))
	}
}

// matMulTransAGEMM sets out = aᵀ @ b or, with acc, adds it to out.
func matMulTransAGEMM(out, a, b *Tensor, acc bool) {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	g := operands{out: out, a: a, b: b, acc: acc}
	parallelGEMM(m, k, n, matmulRowTile, g, func(g operands, lo, hi int) {
		k, m, n := g.a.shape[0], g.a.shape[1], g.b.shape[1]
		gemmRows(g.out.data, g.a.data, 1, m, g.b.data, k, n, lo, hi, g.acc)
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
