//go:build !amd64

package tensor

// Platforms without an assembly layer run the Go loops of kernels.go.

func axpyAdd(av float32, b, o []float32) { axpyAddGo(av, b, o) }

func axpy4Add(a0, a1, a2, a3 float32, b0, b1, b2, b3, o []float32) {
	axpy4AddGo(a0, a1, a2, a3, b0, b1, b2, b3, o)
}

func axpy4Add2(x0, x1, x2, x3, y0, y1, y2, y3 float32, b0, b1, b2, b3, ox, oy []float32) {
	axpy4Add2Go(x0, x1, x2, x3, y0, y1, y2, y3, b0, b1, b2, b3, ox, oy)
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

func transAAcc(a []float32, ps int, b []float32, k int, o []float32) {
	transAAccGo(a, ps, b, k, o)
}

func lstmCellBwd(dz, z []float32, h int, tc, cPrev, dy, dhNext, dcNext, dcPrev []float32) {
	lstmCellBwdGo(dz, z, h, tc, cPrev, dy, dhNext, dcNext, dcPrev)
}
