package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Row-range passes: the dense passes of ops.go, reduce.go and runs.go
// restricted to some rows of a 2-D tensor, for a parameter that knows
// which of its rows a step touched (an embedding table, of which a batch
// writes a few rows). rows lists row indices in ascending order, each
// once; consecutive rows are visited as one range. Every visited
// coefficient gets exactly the operation, on the same kernel, that the
// dense pass gives it — whether the unvisited ones could be skipped is
// the caller's proof, stated on each function.

// RowSet is a set of the rows of a table: a bitmap for membership, and
// the members in the order they were added, put in ascending order on
// demand.
type RowSet struct {
	mark   []uint64
	rows   []int
	sorted bool
}

// NewRowSet returns an empty set of rows below n.
func NewRowSet(n int) RowSet { return RowSet{mark: make([]uint64, (n+63)/64), sorted: true} }

// Add puts row r in the set.
func (s *RowSet) Add(r int) {
	w, b := r>>6, uint64(1)<<(r&63)
	if s.mark[w]&b != 0 {
		return
	}
	s.mark[w] |= b
	if n := len(s.rows); n > 0 && s.rows[n-1] > r {
		s.sorted = false
	}
	s.rows = append(s.rows, r)
}

// AddSet puts every member of o in the set.
func (s *RowSet) AddSet(o *RowSet) {
	for _, r := range o.rows {
		s.Add(r)
	}
}

// AddCovered puts in the set every row, of width coefficients, that a
// span of rs covers.
func (s *RowSet) AddCovered(rs *Runs, width int) {
	for _, sp := range rs.Spans {
		for r := int(sp.Start) / width; r <= int(sp.Start+sp.Len-1)/width; r++ {
			s.Add(r)
		}
	}
}

// Len returns the number of members.
func (s *RowSet) Len() int { return len(s.rows) }

// Ascending returns the members in ascending order, read off the bitmap
// when they were added out of order. The slice is s's: read it before s
// next changes.
func (s *RowSet) Ascending() []int {
	if !s.sorted {
		s.rows = s.rows[:0]
		for w, m := range s.mark {
			for ; m != 0; m &= m - 1 {
				s.rows = append(s.rows, w<<6|bits.TrailingZeros64(m))
			}
		}
		s.sorted = true
	}
	return s.rows
}

// Clear empties the set.
func (s *RowSet) Clear() {
	for _, r := range s.rows {
		s.mark[r>>6] = 0
	}
	s.rows = s.rows[:0]
	s.sorted = true
}

// spare returns room for k more members, past the current ones, for a
// kernel to write rows into.
func (s *RowSet) spare(k int) []int {
	s.rows = slices.Grow(s.rows, k)
	return s.rows[len(s.rows) : len(s.rows)+k]
}

// addSpare adds the first n rows written to spare. Add stores each
// member at or before the slot it was read from, so the rows not yet
// read are intact.
func (s *RowSet) addSpare(n int) {
	for _, r := range s.rows[len(s.rows) : len(s.rows)+n] {
		s.Add(r)
	}
}

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

// DiluteRows is Dilute on the given rows of 2-D tensors (ascending, each
// once) — every row when rows is nil, none when it is empty — leaving
// every other coefficient as it is: each visited coefficient gets exactly Dilute's arithmetic, on
// the same kernel. The same pass adds to changed each visited row whose
// new bits differ from its old ones. It runs serially.
func DiluteRows(alpha float32, w, ref, snap *Tensor, rows []int, changed *RowSet) (finite bool) {
	checkSameShape("DiluteRows", w, ref)
	checkSameShape("DiluteRows", w, snap)
	width := rowWidth("DiluteRows", w)
	n := w.shape[0]
	if rows != nil {
		n = len(rows)
	}
	if n == 0 || width == 0 {
		return true
	}
	finite, k := dilute(1-alpha, alpha, w.data, ref.data, snap.data, width, rows, changed.spare(n))
	changed.addSpare(k)
	return finite
}
