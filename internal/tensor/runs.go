package tensor

import (
	"fmt"
	"math"
)

// Span is one run of a run-form tensor: Len coefficients from Start.
type Span struct{ Start, Len uint32 }

// Runs is a tensor in run form: the maximal runs of coefficients whose
// bits are not +0, as Spans in ascending order, with their values packed
// in Vals. Every coefficient outside the spans is +0 and no value in Vals
// is, so each tensor has exactly one run form. An averaging update is
// mostly untouched rows, and this is the form it travels and applies in.
type Runs struct {
	Shape []int
	Spans []Span
	Vals  []float32
}

// Size is the number of coefficients of the dense tensor r stands for.
func (r *Runs) Size() int {
	n := 1
	for _, d := range r.Shape {
		n *= d
	}
	return n
}

// Dense returns the dense tensor r stands for.
func (r *Runs) Dense() *Tensor {
	t := New(r.Shape...)
	off := 0
	for _, sp := range r.Spans {
		off += copy(t.data[sp.Start:sp.Start+sp.Len], r.Vals[off:])
	}
	return t
}

// runChunk is how many coefficients one kernel call scans, so the span
// buffer a call may fill (c/2+1 runs for c coefficients) lives on the
// stack.
const runChunk = 2048

// PackRuns appends to spans[:0] the runs of x — its maximal runs of
// coefficients whose bits are not +0 — and packs their values into vals,
// which must have room for len(x) values. It returns how many values it
// wrote and the spans. It is the run encoder both the averager and the
// wire codec use; x may be any float32 view, aligned or not.
func PackRuns(x, vals []float32, spans []Span) (int, []Span) {
	return packRuns(x, nil, vals, spans)
}

// packRuns is PackRuns of x − s (s nil: of x).
func packRuns(x, s, vals []float32, spans []Span) (int, []Span) {
	var buf [runChunk/2 + 1]Span
	return packRange(x, s, 0, len(x), vals, 0, spans[:0], buf[:])
}

// packRange appends to spans the runs of x − s (s nil: of x) within
// [lo, hi), packing their values into vals from vals[nv], and returns the
// new value count and spans. buf is the kernel's span scratch, room for
// runChunk/2+1 spans. A run that continues one already in spans — across
// a chunk boundary, or from the range before — extends it.
func packRange(x, s []float32, lo, hi int, vals []float32, nv int, spans, buf []Span) (int, []Span) {
	for ; lo < hi; lo += runChunk {
		end := min(lo+runChunk, hi)
		var sc []float32
		if s != nil {
			sc = s[lo:end]
		}
		n, ns := runs(x[lo:end], sc, vals[nv:], buf, uint32(lo))
		nv += n
		chunk := buf[:ns]
		if ns > 0 && len(spans) > 0 {
			if last := &spans[len(spans)-1]; last.Start+last.Len == chunk[0].Start {
				last.Len += chunk[0].Len
				chunk = chunk[1:]
			}
		}
		spans = append(spans, chunk...)
	}
	return nv, spans
}

// RunsOf returns t in run form.
func RunsOf(t *Tensor) *Runs {
	var b RunBuilder
	return b.build(t.shape, t.data, nil)
}

// RunBuilder derives run-form deltas. Its scratch persists across calls,
// so a steady stream of deltas allocates only the runs it returns, never
// a dense buffer.
type RunBuilder struct {
	vals  []float32
	spans []Span
}

// Sub returns w − s in run form. Each coefficient is the one subtract Sub
// gives it, so Sub(w, s).Dense() equals Sub(w, s) bit for bit.
func (b *RunBuilder) Sub(w, s *Tensor) *Runs {
	checkSameShape("RunBuilder.Sub", w, s)
	return b.build(w.shape, w.data, s.data)
}

func (b *RunBuilder) build(shape []int, x, s []float32) *Runs {
	if cap(b.vals) < len(x) {
		b.vals = make([]float32, len(x))
	}
	var nv int
	nv, b.spans = packRuns(x, s, b.vals[:len(x)], b.spans)
	return b.runs(shape, nv)
}

// runs copies the builder's spans and first nv values out as a Runs.
func (b *RunBuilder) runs(shape []int, nv int) *Runs {
	return &Runs{
		Shape: shape, // immutable, like the tensor's own
		Spans: append([]Span(nil), b.spans...),
		Vals:  append([]float32(nil), b.vals[:nv]...),
	}
}

// AxpyRuns sets t += alpha·d for a run-form d, touching d's runs only:
// each run coefficient gets the multiply and add AxpyInPlace gives it. The
// coefficients between runs are d's +0s, where the dense t += alpha·0
// leaves t unchanged unless t holds a value that adding zero moves (see
// ZeroAddMoves); gaps applies that x + alpha·0 to them as well, so the
// result is AxpyInPlace's bit for bit either way.
func (t *Tensor) AxpyRuns(alpha float32, d *Runs, gaps bool) {
	if d.Size() != len(t.data) {
		panic(fmt.Sprintf("tensor: AxpyRuns shape mismatch %v vs %v", t.shape, d.Shape))
	}
	z := alpha * 0
	off, prev := 0, uint32(0)
	for _, sp := range d.Spans {
		end := sp.Start + sp.Len
		if gaps {
			addScalar(z, t.data[prev:sp.Start])
		}
		axpyAdd(alpha, d.Vals[off:off+int(sp.Len)], t.data[sp.Start:end])
		off += int(sp.Len)
		prev = end
	}
	if gaps {
		addScalar(z, t.data[prev:])
	}
}

func addScalar(z float32, o []float32) {
	for i := range o {
		o[i] += z
	}
}

// ZeroAddMoves reports whether adding zero changes the bits of some
// coefficient of t: a −0 (−0 + +0 is +0) or a signalling NaN (which the
// add quiets). No other value moves, and no sum of other values produces
// one, so a tensor for which this is false stays so under AxpyRuns.
func (t *Tensor) ZeroAddMoves() bool {
	for _, v := range t.data {
		b := math.Float32bits(v)
		if b == 1<<31 || (b&0x7fc00000 == 0x7f800000 && b&0x3fffff != 0) {
			return true
		}
	}
	return false
}
