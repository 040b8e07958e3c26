package tensor

import (
	"fmt"
	"math"
)

// Row-range passes: the dense passes of ops.go, reduce.go and runs.go
// restricted to some rows of a 2-D tensor, for a parameter that knows
// which of its rows a step touched (an embedding table, of which a batch
// writes a few rows). rows lists row indices in ascending order, each
// once; consecutive rows are visited as one range. Every visited
// coefficient gets exactly the operation, on the same kernel, that the
// dense pass gives it — whether the unvisited ones could be skipped is
// the caller's proof, stated on each function.

// rowRange returns the coefficient range [lo, hi) of the run of
// consecutive rows starting at rows[i], and the index after it.
func rowRange(rows []int, i, width int) (lo, hi, next int) {
	next = i + 1
	for next < len(rows) && rows[next] == rows[next-1]+1 {
		next++
	}
	return rows[i] * width, (rows[next-1] + 1) * width, next
}

// rowWidth returns t's row length, panicking unless t is 2-D.
func rowWidth(op string, t *Tensor) int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s needs a 2-D tensor, got %v", op, t.shape))
	}
	return t.shape[1]
}

// L2NormRows is the Euclidean norm of the given rows of t, summed in
// index order. When every coefficient outside rows is ±0 it equals
// L2Norm bit for bit: the same float64 adds in the same order, less the
// zero terms that L2Norm adds exactly (see L2Norm).
func (t *Tensor) L2NormRows(rows []int) float64 {
	w := rowWidth("L2NormRows", t)
	var s float64
	for i := 0; i < len(rows); {
		lo, hi, next := rowRange(rows, i, w)
		for _, v := range t.data[lo:hi] {
			s += float64(v) * float64(v)
		}
		i = next
	}
	return math.Sqrt(s)
}

// ScaleRows multiplies the given rows of t by alpha, as ScaleInPlace
// does. Outside them ScaleInPlace would turn a +0 into +0 for any alpha
// with a clear sign bit.
func (t *Tensor) ScaleRows(alpha float32, rows []int) {
	w := rowWidth("ScaleRows", t)
	for i := 0; i < len(rows); {
		lo, hi, next := rowRange(rows, i, w)
		vecScale(alpha, t.data[lo:hi])
		i = next
	}
}

// AxpyRows sets t += alpha·b on the given rows, as AxpyInPlace does.
// Where b is +0, AxpyInPlace adds alpha·0, which is −0 for a finite
// alpha < 0 and leaves every value but a signalling NaN unchanged.
func (t *Tensor) AxpyRows(alpha float32, b *Tensor, rows []int) {
	checkSameShape("AxpyRows", t, b)
	w := rowWidth("AxpyRows", t)
	for i := 0; i < len(rows); {
		lo, hi, next := rowRange(rows, i, w)
		axpyAdd(alpha, b.data[lo:hi], t.data[lo:hi])
		i = next
	}
}

// ZeroRows sets the given rows of t to +0.
func (t *Tensor) ZeroRows(rows []int) {
	w := rowWidth("ZeroRows", t)
	for i := 0; i < len(rows); {
		lo, hi, next := rowRange(rows, i, w)
		clear(t.data[lo:hi])
		i = next
	}
}

// SubRows returns w − s in run form, scanning the given rows only. When
// w equals s bit for bit and is finite outside rows — so each w − s
// there is +0 — it returns exactly the Runs that Sub returns: a run
// continuing into the next row stays one run.
func (b *RunBuilder) SubRows(w, s *Tensor, rows []int) *Runs {
	checkSameShape("RunBuilder.SubRows", w, s)
	width := rowWidth("RunBuilder.SubRows", w)
	if cap(b.vals) < len(w.data) {
		b.vals = make([]float32, len(w.data))
	}
	var buf [runChunk/2 + 1]Span
	vals, spans, nv := b.vals[:len(w.data)], b.spans[:0], 0
	for i := 0; i < len(rows); {
		lo, hi, next := rowRange(rows, i, width)
		nv, spans = packRange(w.data, s.data, lo, hi, vals, nv, spans, buf[:])
		i = next
	}
	b.spans = spans
	return b.runs(w.shape, nv)
}
