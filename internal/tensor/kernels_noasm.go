//go:build !amd64

package tensor

// Platforms without an assembly layer run the Go loops of kernels.go.

func axpyAdd(av float32, b, o []float32) { axpyAddGo(av, b, o) }

func gemmTile(a []float32, rs, ps int, b []float32, ldb, kb int, o []float32, ldo, n, rows int, mode tileMode) {
	gemmTileGo(a, rs, ps, b, ldb, kb, o, ldo, n, rows, mode)
}

func vecAdd(o, b []float32)               { vecAddGo(o, b) }
func vecAddTo(o, a, b []float32)          { vecAddToGo(o, a, b) }
func vecSub(o, a, b []float32)            { vecSubGo(o, a, b) }
func vecMul(o, b []float32)               { vecMulGo(o, b) }
func vecScale(alpha float32, o []float32) { vecScaleGo(alpha, o) }

func dilute(a, b float32, w, r, snap []float32, width int, rows, out []int) (bool, int) {
	return diluteGo(a, b, w, r, snap, width, rows, out)
}

func runs(x, s, vals []float32, spans []Span, base uint32) (int, int) {
	return runsGo(x, s, vals, spans, base)
}

// actInto sets dst = act(src) (ActSigmoid, ActTanh, actGELU or
// actGELUDeriv) with the scalar definition, which therefore computes
// every element.
func actInto(act Act, dst, src []float32) (scalar int) {
	actGo(act, dst, src)
	return len(dst)
}

// vectorOpsPerUnit: the Go loops run at the scalar speed parallel.go's cost
// unit is defined by.
const vectorOpsPerUnit = 1

// transBRowTile is the row granularity matmul chunks are aligned to for
// a @ bᵀ; the Go loops have no row tile.
const transBRowTile = 1

func transBRows(out, a, b []float32, k, n, lo, hi int) {
	transBRowsGo(out, a, b, k, n, lo, hi)
}

func lstmCellBwd(dz, z []float32, h int, tc, cPrev, dy, dhNext, dcNext, dcPrev []float32) {
	lstmCellBwdGo(dz, z, h, tc, cPrev, dy, dhNext, dcNext, dcPrev)
}
