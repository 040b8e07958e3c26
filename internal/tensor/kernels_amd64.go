package tensor

import (
	"fmt"
	"math/bits"
)

// The amd64 kernel layer: each primitive of kernels.go dispatches to its
// AVX2 twin in kernels_amd64.s when the CPU and the OS support it, and to
// the Go loop otherwise. The choice is a hardware fact read once at init —
// there is nothing to configure, because both sides produce the same bits.

// useAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
var useAVX2 = detectAVX2()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS context-switches XMM and YMM state.
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// The assembly reads len(o) elements from every operand and never looks at
// a pointer when that count is zero; the Go wrappers below reslice the
// other operands to len(o) first, so a short operand panics here exactly
// as it does in the Go loops.

//go:noescape
func axpyAddAVX2(av float32, b, o []float32)

// gemmTileAVX2 is gemmTileGo with a register tile: it takes the rows in
// pairs and holds two rows by 32 columns in eight accumulators across all
// kb steps, then two rows by 8, then single columns; the two rows share
// each load of b. Per step it reads both rows' coefficients, sorts the
// step into both rows live, one row live or neither — ±0 is dead, NaN
// live, as av != 0 — and runs only the live rows' multiplies and adds. An
// odd last row takes the one-row form, which reads no coefficient and
// writes no output of a second row.
//
//go:noescape
func gemmTileAVX2(a []float32, rs, ps int, b []float32, ldb, kb int, o []float32, ldo, n, rows int, mode tileMode)

//go:noescape
func vecAddAVX2(o, b []float32)

//go:noescape
func vecAddToAVX2(o, a, b []float32)

//go:noescape
func vecSubAVX2(o, a, b []float32)

//go:noescape
func vecMulAVX2(o, b []float32)

//go:noescape
func vecScaleAVX2(alpha float32, o []float32)

//go:noescape
func diluteAVX2(a, b float32, w, r, snap []float32, width int, rows, out []int) (finite bool, n int)

// runsAVX2 is runsGo eight coefficients at a time: each block is stored
// to vals where the next value belongs, kept as is when all eight lanes
// are non-zero, skipped when all are +0, and compacted lane by lane when
// mixed. The store needs vals to have room for len(x) values.
//
//go:noescape
func runsAVX2(x, s, vals []float32, spans []Span, base uint32) (nv, ns int)

// dotCols8AVX2 computes one k-block of an 8-row block of a @ bᵀ with one
// SIMD lane per row: at is the block of a packed transposed (kb,8), b
// starts at the k-block's first column of a (n,·) matrix with row stride
// ldb, and out[l*ldo+j] (+)= Σ_{p<kb} at[p*8+l]*b[j*ldb+p] for l < 8,
// j < n. Every lane is one accumulator visiting p ascending — the dotSeq
// chain — starting from zero, or from out's value when resume is set (a
// float32 stored and reloaded is the same float32, so splitting k into
// blocks does not change the chain). kb must be at least 1.
//
//go:noescape
func dotCols8AVX2(at, b []float32, ldb, kb, n int, out []float32, ldo int, resume bool)

// lstmCellBwdAVX2 is lstmCellBwdGo eight elements at a time; len(tc)
// must be a multiple of 8, and every other hidden vector at least as long.
//
//go:noescape
func lstmCellBwdAVX2(dz, z []float32, h int, tc, cPrev, dy, dhNext, dcNext, dcPrev []float32)

// sigmoidAVX2 and tanhAVX2 are the verified activation kernels: over the
// whole 8-blocks of src they write Sigmoid32/Tanh32 of every lane whose
// result passes the rounding test, and return at the first block with a
// lane that did not — done is the count of elements before it, reject the
// mask of its lanes, which hold their input unchanged. reject is 0 once
// every whole block is done.
//
//go:noescape
func sigmoidAVX2(dst, src []float32) (done, reject int)

//go:noescape
func tanhAVX2(dst, src []float32) (done, reject int)

// geluAVX2 and geluDerivAVX2 are the verified kernels of Gelu32 and
// GeluDeriv32, with the same contract; their fast path is |x| ≤ 16.
//
//go:noescape
func geluAVX2(dst, src []float32) (done, reject int)

//go:noescape
func geluDerivAVX2(dst, src []float32) (done, reject int)

func actBlocks(act Act, dst, src []float32) (done, reject int) {
	switch act {
	case ActTanh:
		return tanhAVX2(dst, src)
	case actGELU:
		return geluAVX2(dst, src)
	case actGELUDeriv:
		return geluDerivAVX2(dst, src)
	}
	return sigmoidAVX2(dst, src)
}

// actInto sets dst = act(src) (ActSigmoid, ActTanh, actGELU or
// actGELUDeriv) and returns how many elements the scalar definition
// computed: each lane the vector kernel rejected, or all of them without
// AVX2. A tail shorter than a block runs
// through the kernel from a padded copy; the zero padding is never
// rejected.
func actInto(act Act, dst, src []float32) (scalar int) {
	src = src[:len(dst)]
	if !useAVX2 {
		actGo(act, dst, src)
		return len(dst)
	}
	for len(dst) >= 8 {
		done, reject := actBlocks(act, dst, src)
		dst, src = dst[done:], src[done:]
		if reject == 0 {
			break
		}
		scalar += actRedo(act, dst, src, reject)
		dst, src = dst[8:], src[8:]
	}
	if n := len(dst); n > 0 {
		var buf [8]float32
		copy(buf[:], src)
		_, reject := actBlocks(act, buf[:], buf[:])
		scalar += actRedo(act, buf[:], buf[:], reject)
		copy(dst, buf[:n])
	}
	return scalar
}

// actRedo recomputes with the scalar definition each lane set in reject.
// A rejected lane of dst still holds its input, so src may be dst.
func actRedo(act Act, dst, src []float32, reject int) int {
	for m := uint(reject); m != 0; m &= m - 1 {
		i := bits.TrailingZeros(m)
		actGo(act, dst[i:i+1], src[i:i+1])
	}
	return bits.OnesCount(uint(reject))
}

func axpyAdd(av float32, b, o []float32) {
	if useAVX2 {
		axpyAddAVX2(av, b[:len(o)], o)
		return
	}
	axpyAddGo(av, b, o)
}

// gemmTile runs one GEMM tile (gemmTileGo). The assembly reads
// a[r*rs+p*ps], b[p*ldb+j] and o[r*ldo+j] for r < rows, p < kb, j < n;
// the checks here panic on a short operand as indexing does in Go.
func gemmTile(a []float32, rs, ps int, b []float32, ldb, kb int, o []float32, ldo, n, rows int, mode tileMode) {
	if useAVX2 {
		if n > 0 && rows > 0 {
			_ = o[(rows-1)*ldo+n-1]
			if kb > 0 {
				_, _ = a[(rows-1)*rs+(kb-1)*ps], b[(kb-1)*ldb+n-1]
			}
		}
		gemmTileAVX2(a, rs, ps, b, ldb, kb, o, ldo, n, rows, mode)
		return
	}
	gemmTileGo(a, rs, ps, b, ldb, kb, o, ldo, n, rows, mode)
}

func vecAdd(o, b []float32) {
	if useAVX2 {
		vecAddAVX2(o, b[:len(o)])
		return
	}
	vecAddGo(o, b)
}

func vecAddTo(o, a, b []float32) {
	if useAVX2 {
		vecAddToAVX2(o, a[:len(o)], b[:len(o)])
		return
	}
	vecAddToGo(o, a, b)
}

func vecSub(o, a, b []float32) {
	if useAVX2 {
		vecSubAVX2(o, a[:len(o)], b[:len(o)])
		return
	}
	vecSubGo(o, a, b)
}

func vecMul(o, b []float32) {
	if useAVX2 {
		vecMulAVX2(o, b[:len(o)])
		return
	}
	vecMulGo(o, b)
}

func vecScale(alpha float32, o []float32) {
	if useAVX2 {
		vecScaleAVX2(alpha, o)
		return
	}
	vecScaleGo(alpha, o)
}

func dilute(a, b float32, w, r, snap []float32, width int, rows, out []int) (bool, int) {
	if useAVX2 {
		if len(out) > 0 {
			checkDiluteRows(len(w), width, rows, out)
		}
		return diluteAVX2(a, b, w, r[:len(w)], snap[:len(w)], width, rows, out)
	}
	return diluteGo(a, b, w, r, snap, width, rows, out)
}

// checkDiluteRows panics unless the n values are whole rows, every row
// the assembly visits lies in the table and out has room for each, as
// indexing does in diluteGo.
func checkDiluteRows(n, width int, rows, out []int) {
	total := n / width
	if total*width != n {
		panic(fmt.Sprintf("tensor: dilute over %d values in rows of %d", n, width))
	}
	if len(rows) == 0 {
		_ = out[:total]
		return
	}
	_ = out[:len(rows)]
	for _, k := range rows {
		if uint(k) >= uint(total) {
			panic(fmt.Sprintf("tensor: dilute row %d outside a table of %d rows", k, total))
		}
	}
}

func runs(x, s, vals []float32, spans []Span, base uint32) (int, int) {
	if useAVX2 {
		if len(s) > 0 {
			s = s[:len(x)]
		}
		_ = spans[len(x)/2]
		return runsAVX2(x, s, vals[:len(x)], spans, base)
	}
	return runsGo(x, s, vals, spans, base)
}

// vectorOpsPerUnit is how many element operations of a vector kernel — a
// GEMM multiply-add, an elementwise add — make one parallel-for cost unit
// (parallel.go). Measured on a 2-vCPU Xeon @ 2.1 GHz with the streaming
// kernels: fanning out stops losing to the serial call at about 2^20 of
// them, for all three GEMM variants (32×128×n, n = 64…1024) and for
// AxpyInPlace alike, against parallelThreshold = 2^14 units. The GEMM
// tile leaves the forward product's break-even at about 2^20 (the three
// per-micro-batch shapes with n scaled; the AWD embedding projection
// fans out faster at every size).
const vectorOpsPerUnit = 64

// transBRowTile is how many rows of a the A·Bᵀ kernel packs per block,
// and transBKBlock how many columns of them at a time.
const (
	transBRowTile = 8
	transBKBlock  = 256
)

// transBRows computes rows [lo,hi) of out = a @ bᵀ. A dot product cannot
// be vectorised along k without regrouping its sum, so the AVX2 path turns
// the problem sideways: it packs eight rows of a transposed (k,8) — m·k
// copies against m·k·n multiply-adds — and gives each row a lane, so eight
// dotSeq chains advance together, each still its own accumulator. The pack
// buffer is 8 KB of stack (the compiled replay may not touch the arena),
// so k advances in blocks of transBKBlock. Rows past the last full block
// of eight take the Go loops.
func transBRows(out, a, b []float32, k, n, lo, hi int) {
	if useAVX2 && k > 0 && n > 0 && hi-lo >= transBRowTile {
		var at [transBRowTile * transBKBlock]float32
		for ; lo+transBRowTile <= hi; lo += transBRowTile {
			rows := a[lo*k : (lo+transBRowTile)*k]
			orows := out[lo*n : (lo+transBRowTile)*n]
			for p0 := 0; p0 < k; p0 += transBKBlock {
				kb := min(transBKBlock, k-p0)
				packTrans8(at[:transBRowTile*kb], rows[p0:], k)
				dotCols8AVX2(at[:transBRowTile*kb], b[p0:n*k], k, kb, n, orows, n, p0 > 0)
			}
		}
	}
	transBRowsGo(out, a, b, k, n, lo, hi)
}

// lstmCellBwd runs the cell backward of one row (lstmCellBwdGo): the
// whole 8-blocks on the AVX2 kernel, the tail in Go.
func lstmCellBwd(dz, z []float32, h int, tc, cPrev, dy, dhNext, dcNext, dcPrev []float32) {
	if n := len(tc) &^ 7; useAVX2 && n > 0 {
		_, _ = dz[3*h+n-1], z[3*h+n-1]
		lstmCellBwdAVX2(dz, z, h, tc[:n], cPrev[:n], dy[:n], dhNext[:n], dcNext[:n], dcPrev[:n])
		dz, z, tc, cPrev, dy = dz[n:], z[n:], tc[n:], cPrev[n:], dy[n:]
		dhNext, dcNext, dcPrev = dhNext[n:], dcNext[n:], dcPrev[n:]
	}
	lstmCellBwdGo(dz, z, h, tc, cPrev, dy, dhNext, dcNext, dcPrev)
}

// packTrans8 writes the first len(at)/8 columns of the eight rows in a
// (row stride k) transposed into at: at[p*8+l] = a[l*k+p].
func packTrans8(at, a []float32, k int) {
	kb := len(at) / 8
	r0, r1, r2, r3 := a[0:kb], a[k:k+kb], a[2*k:2*k+kb], a[3*k:3*k+kb]
	r4, r5, r6, r7 := a[4*k:4*k+kb], a[5*k:5*k+kb], a[6*k:6*k+kb], a[7*k:7*k+kb]
	for p := 0; p < kb; p++ {
		d := at[p*8 : p*8+8 : p*8+8]
		d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
		d[4], d[5], d[6], d[7] = r4[p], r5[p], r6[p], r7[p]
	}
}
