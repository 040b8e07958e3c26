package tensor

import "math"

// The inner loops every hot kernel is built from, in plain Go. These are
// the definition of each primitive — the per-element float expression and
// its evaluation order — and the implementation on every platform without
// the AVX2 layer (kernels_noasm.go, or an amd64 CPU/OS without AVX2). The
// amd64 assembly in kernels_amd64.s is tested bit-equal to them
// (kernels_amd64_test.go); see the determinism contract in matmul.go for
// the rule that makes that possible.

// axpyAddGo computes o[j] += av * b[j] for all j, unrolled 8-wide. Each
// element still receives exactly one multiply and one add in index order,
// so this is bit-identical to the plain loop; the full slice expressions
// let the compiler drop bounds checks inside the unrolled body.
func axpyAddGo(av float32, b, o []float32) {
	n := len(o)
	b = b[:n]
	j := 0
	for ; j+8 <= n; j += 8 {
		bo := b[j : j+8 : j+8]
		oo := o[j : j+8 : j+8]
		oo[0] += av * bo[0]
		oo[1] += av * bo[1]
		oo[2] += av * bo[2]
		oo[3] += av * bo[3]
		oo[4] += av * bo[4]
		oo[5] += av * bo[5]
		oo[6] += av * bo[6]
		oo[7] += av * bo[7]
	}
	for ; j < n; j++ {
		o[j] += av * b[j]
	}
}

// tileMode says where a GEMM tile's accumulators start and where they
// end (gemmTileGo).
type tileMode int

const (
	tileSet    tileMode = iota // start at +0, store: a product's first k-block
	tileResume                 // start from o, store: every later k-block
	tileAcc                    // start at +0, add to o once: the accumulate kernel
)

// gemmTileCols is how many output columns gemmTileGo carries per row in
// its accumulator block.
const gemmTileCols = 64

// gemmTileGo is the one GEMM primitive: rows r < rows by columns j < n of
// an output o with row stride ldo. Each element is one accumulator s that
// starts at +0, or at o[r*ldo+j] in tileResume; then, for p < kb
// ascending, unless the coefficient c = a[r*rs+p*ps] is ±0,
// s += c*b[p*ldb+j], a multiply and then an add; then it is stored, or in
// tileAcc added to o once (o first, as in vecAdd). A NaN coefficient is
// not zero and is not skipped. A skipped step adds nothing — not even +0,
// which would turn a −0 accumulator into +0 — so this is exactly the
// chain of single axpyAdd steps under the av != 0 skip, whichever way the
// caller blocks k (a stored float32 reloads as itself) or the assembly
// pairs rows.
func gemmTileGo(a []float32, rs, ps int, b []float32, ldb, kb int, o []float32, ldo, n, rows int, mode tileMode) {
	var acc [gemmTileCols]float32
	for r := 0; r < rows; r++ {
		or := o[r*ldo : r*ldo+n]
		for j0 := 0; j0 < n; j0 += len(acc) {
			s := acc[:min(len(acc), n-j0)]
			if mode == tileResume {
				copy(s, or[j0:])
			} else {
				clear(s)
			}
			for p := 0; p < kb; p++ {
				if c := a[r*rs+p*ps]; c != 0 {
					axpyAddGo(c, b[p*ldb+j0:], s)
				}
			}
			if mode == tileAcc {
				vecAddGo(or[j0:j0+len(s)], s)
			} else {
				copy(or[j0:], s)
			}
		}
	}
}

// lstmCellBwdGo is the LSTM cell backward over len(tc) elements of one
// row: z holds the row's gate activations packed [i|f|g|o] with gate
// stride h, dz receives the pre-activation gradient in the same layout,
// and tc, cPrev, dy, dhNext, dcNext and dcPrev are the row's hidden
// vectors. Each expression is evaluated in exactly the order written:
// this loop is the definition the AVX2 twin is tested against.
func lstmCellBwdGo(dz, z []float32, h int, tc, cPrev, dy, dhNext, dcNext, dcPrev []float32) {
	for j := range tc {
		iv, fv, gv, ov := z[j], z[h+j], z[2*h+j], z[3*h+j]
		t := tc[j]
		dh := dy[j] + dhNext[j]
		do := dh * t
		dc := dcNext[j] + (dh*ov)*(1-t*t)
		dz[j] = (dc * gv) * (iv * (1 - iv))
		dz[h+j] = (dc * cPrev[j]) * (fv * (1 - fv))
		dz[2*h+j] = (dc * iv) * (1 - gv*gv)
		dz[3*h+j] = do * (ov * (1 - ov))
		dcPrev[j] = dc * fv
	}
}

// dotSeq computes the in-order dot product of a and b with a single
// accumulator, unrolled 4-wide purely to amortize loop overhead: the adds
// into sum stay in ascending index order, so rounding matches the plain
// loop exactly.
func dotSeq(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var sum float32
	p := 0
	for ; p+4 <= n; p += 4 {
		ao := a[p : p+4 : p+4]
		bo := b[p : p+4 : p+4]
		sum += ao[0] * bo[0]
		sum += ao[1] * bo[1]
		sum += ao[2] * bo[2]
		sum += ao[3] * bo[3]
	}
	for ; p < n; p++ {
		sum += a[p] * b[p]
	}
	return sum
}

// dot4Seq computes four in-order dot products of a against b0..b3 in one
// pass, loading each a element once. Every accumulator is still a single
// float32 summed in ascending index order, so each result is bit-identical
// to a separate dotSeq call.
func dot4Seq(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	n := len(a)
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	for p := 0; p < n; p++ {
		av := a[p]
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	return
}

// transBRowsGo computes rows [lo,hi) of out = a @ bᵀ for a (m,k), b (n,k):
// one dotSeq chain per output element, four b rows per pass over an a row.
func transBRowsGo(out, a, b []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			orow[j], orow[j+1], orow[j+2], orow[j+3] = dot4Seq(arow,
				b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k],
				b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k])
		}
		for ; j < n; j++ {
			orow[j] = dotSeq(arow, b[j*k:(j+1)*k])
		}
	}
}

// vecAddGo sets o[i] += b[i].
func vecAddGo(o, b []float32) {
	b = b[:len(o)]
	for i := range o {
		o[i] += b[i]
	}
}

// vecAddToGo sets o[i] = a[i] + b[i]; o may alias a.
func vecAddToGo(o, a, b []float32) {
	a = a[:len(o)]
	b = b[:len(o)]
	for i := range o {
		o[i] = a[i] + b[i]
	}
}

// vecSubGo sets o[i] = a[i] - b[i]; o may alias a.
func vecSubGo(o, a, b []float32) {
	a = a[:len(o)]
	b = b[:len(o)]
	for i := range o {
		o[i] = a[i] - b[i]
	}
}

// vecMulGo sets o[i] *= b[i].
func vecMulGo(o, b []float32) {
	b = b[:len(o)]
	for i := range o {
		o[i] *= b[i]
	}
}

// vecScaleGo sets o[i] *= alpha.
func vecScaleGo(alpha float32, o []float32) {
	for i := range o {
		o[i] *= alpha
	}
}

// diluteGo sets w[i] = a*w[i] + b*r[i] and snap[i] = w[i]: the two
// products rounded separately, then their sum — vecScale followed by
// axpyAdd, and the copy, in one pass. It reports whether every value it
// wrote is finite: adding one to the top of the exponent field carries
// into the sign bit exactly when that field is all ones (±Inf, NaN).
// With out empty it passes over all of w. Otherwise w is a table of rows
// of width values, the pass visits the listed rows (ascending, each
// once) or, with rows empty, every row, and it lists in out, ascending,
// each visited row whose new bits differ from its old ones; n counts
// them. out needs room for every visited row.
func diluteGo(a, b float32, w, r, snap []float32, width int, rows, out []int) (finite bool, n int) {
	r = r[:len(w)]
	snap = snap[:len(w)]
	if len(out) == 0 {
		carry, _ := diluteSpan(a, b, w, r, snap)
		return carry&(1<<31) == 0, 0
	}
	count := len(rows)
	if count == 0 {
		count = len(w) / width
	}
	var carry uint32
	for i := 0; i < count; i++ {
		k := i
		if len(rows) > 0 {
			k = rows[i]
		}
		lo, hi := k*width, (k+1)*width
		c, diff := diluteSpan(a, b, w[lo:hi], r[lo:hi], snap[lo:hi])
		carry |= c
		if diff != 0 {
			out[n] = k
			n++
		}
	}
	return carry&(1<<31) == 0, n
}

// diluteSpan is diluteGo's pass over one span: it returns the OR of the
// written values' exponent carries, and of their bits XOR the old ones.
func diluteSpan(a, b float32, w, r, snap []float32) (carry, diff uint32) {
	r = r[:len(w)]
	snap = snap[:len(w)]
	for i := range w {
		v := a * w[i]
		v += b * r[i]
		diff |= math.Float32bits(v) ^ math.Float32bits(w[i])
		w[i] = v
		snap[i] = v
		carry |= math.Float32bits(v)&0x7f800000 + 0x00800000
	}
	return carry, diff
}

// actGo sets dst[i] to the activation's scalar definition of src[i] —
// Tanh32, Sigmoid32, Gelu32 or GeluDeriv32 — one call per element: the
// activation kernels' definition. The AVX2 layer computes the same values
// another way and proves each one (kernels_amd64.s).
func actGo(act Act, dst, src []float32) {
	src = src[:len(dst)]
	def := Sigmoid32
	switch act {
	case ActTanh:
		def = Tanh32
	case actGELU:
		def = Gelu32
	case actGELUDeriv:
		def = GeluDeriv32
	}
	for i, v := range src {
		dst[i] = def(v)
	}
}

// runsGo packs the coefficients of d = x − s (d = x when s is empty) whose
// bits are not +0 into vals, in index order, and records the maximal runs
// they form in spans as (base+start, length). Each coefficient costs the
// one subtract vecSub gives it. vals must have room for len(x) values and
// spans for len(x)/2+1 runs; it returns how many of each it wrote.
func runsGo(x, s, vals []float32, spans []Span, base uint32) (nv, ns int) {
	if len(s) > 0 {
		s = s[:len(x)]
	}
	open := false
	for i, v := range x {
		if len(s) > 0 {
			v -= s[i]
		}
		if math.Float32bits(v) == 0 {
			open = false
			continue
		}
		if !open {
			spans[ns] = Span{Start: base + uint32(i)}
			ns++
			open = true
		}
		spans[ns-1].Len++
		vals[nv] = v
		nv++
	}
	return nv, ns
}
