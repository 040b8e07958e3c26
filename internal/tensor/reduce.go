package tensor

import (
	"fmt"
	"math"
)

// Sum returns the sum of all elements, accumulated in float64 for
// stability on large tensors.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. Panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. Panics on an empty tensor.
func (t *Tensor) Min() float32 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor, summed in
// index order. Blocks of ±0 are skipped — exactly, because the running sum
// is never −0 and adding +0 to it changes nothing — so a mostly untouched
// gradient (an embedding's) costs a scan, not a float64 add chain.
func (t *Tensor) L2Norm() float64 {
	var s float64
	x := t.data
	for i := 0; i < len(x); {
		i += zeroBlocks(x[i:])
		end := min(i+l2Block, len(x))
		for _, v := range x[i:end] {
			s += float64(v) * float64(v)
		}
		i = end
	}
	return math.Sqrt(s)
}

// l2Block is how many coefficients L2Norm sums between zero scans: a few
// embedding rows, so a touched row costs little more than itself.
const l2Block = 64

// Dot returns the inner product of two tensors of equal size.
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %v vs %v", a.shape, b.shape))
	}
	var s float64
	for i := range a.data {
		s += float64(a.data[i]) * float64(b.data[i])
	}
	return s
}

// SumRows returns the column-wise sum of a 2-D tensor: (r,c) -> (c).
// This is the bias-gradient reduction. Rows are accumulated in ascending
// order (sequentially) so the reduction is deterministic.
func SumRows(t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SumRows requires a 2-D tensor")
	}
	out := Borrow(t.shape[1])
	sumRowsAccInto(out, t)
	return out
}

// SumRowsAcc sets dst += column-wise sum of t without forming the sum —
// the bias-gradient accumulate. It is MatMulTransAAcc's kernel with a
// coefficient of 1 for every row: one accumulator per column starting at
// +0, rows added in ascending order, then added to dst once, so each
// element's rounding sequence matches dst.AddInPlace(SumRows(t)) exactly.
func SumRowsAcc(dst, t *Tensor) {
	if len(t.shape) != 2 {
		panic("tensor: SumRowsAcc requires a 2-D tensor")
	}
	if len(dst.shape) != 1 || dst.shape[0] != t.shape[1] {
		panic(fmt.Sprintf("tensor: SumRowsAcc dst %v for %v", dst.shape, t.shape))
	}
	one := [1]float32{1}
	transAAcc(one[:], 0, t.data, t.shape[0], dst.data)
}

func sumRowsAccInto(out, t *Tensor) {
	r, c := t.shape[0], t.shape[1]
	for i := 0; i < r; i++ {
		axpyAdd(1, t.data[i*c:(i+1)*c], out.data)
	}
}

// SumCols returns the row-wise sum of a 2-D tensor: (r,c) -> (r).
func SumCols(t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SumCols requires a 2-D tensor")
	}
	r, c := t.shape[0], t.shape[1]
	out := borrowRaw(r)
	ParallelForCost(r, c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := t.data[i*c : (i+1)*c]
			var s float32
			for j := 0; j < c; j++ {
				s += row[j]
			}
			out.data[i] = s
		}
	})
	return out
}

// ArgMaxRows returns, for each row of a 2-D tensor, the index of its
// maximum element.
func ArgMaxRows(t *Tensor) []int {
	if len(t.shape) != 2 {
		panic("tensor: ArgMaxRows requires a 2-D tensor")
	}
	r, c := t.shape[0], t.shape[1]
	out := make([]int, r)
	ParallelForCost(r, c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := t.data[i*c : (i+1)*c]
			best, bestV := 0, row[0]
			for j := 1; j < c; j++ {
				if row[j] > bestV {
					best, bestV = j, row[j]
				}
			}
			out[i] = best
		}
	})
	return out
}

// SoftmaxRows returns the row-wise softmax of a 2-D tensor, computed with
// the max-subtraction trick for numerical stability.
func SoftmaxRows(t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SoftmaxRows requires a 2-D tensor")
	}
	out := borrowRaw(t.shape...)
	SoftmaxRowsInto(out, t)
	return out
}

// SoftmaxRowsInto writes the row-wise softmax of the 2-D tensor t into
// dst (t's shape), fully overwriting it: SoftmaxRows without the
// allocation.
func SoftmaxRowsInto(dst, t *Tensor) {
	if len(t.shape) != 2 {
		panic("tensor: SoftmaxRowsInto requires a 2-D tensor")
	}
	checkSameShape("SoftmaxRowsInto", dst, t)
	r, c := t.shape[0], t.shape[1]
	parallelFor(r, r*max(c, 1), 1, operands{out: dst, a: t}, func(g operands, lo, hi int) {
		c := g.a.shape[1]
		for i := lo; i < hi; i++ {
			row := g.a.data[i*c : (i+1)*c]
			orow := g.out.data[i*c : (i+1)*c]
			m := row[0]
			for _, v := range row[1:] {
				if v > m {
					m = v
				}
			}
			var sum float64
			for j, v := range row {
				e := math.Exp(float64(v - m))
				orow[j] = float32(e)
				sum += e
			}
			inv := float32(1 / sum)
			for j := range orow {
				orow[j] *= inv
			}
		}
	})
}

// LogSoftmaxRows returns the row-wise log-softmax of a 2-D tensor.
func LogSoftmaxRows(t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: LogSoftmaxRows requires a 2-D tensor")
	}
	r, c := t.shape[0], t.shape[1]
	out := borrowRaw(r, c)
	ParallelForCost(r, c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := t.data[i*c : (i+1)*c]
			orow := out.data[i*c : (i+1)*c]
			m := row[0]
			for _, v := range row[1:] {
				if v > m {
					m = v
				}
			}
			var sum float64
			for _, v := range row {
				sum += math.Exp(float64(v - m))
			}
			lse := float32(math.Log(sum)) + m
			for j, v := range row {
				orow[j] = v - lse
			}
		}
	})
	return out
}

// Gather selects rows of table (v, d) by the given indices, producing
// (len(idx), d). This is the embedding-lookup primitive.
func Gather(table *Tensor, idx []int) *Tensor {
	if len(table.shape) != 2 {
		panic("tensor: Gather requires a 2-D table")
	}
	d := table.shape[1]
	out := borrowRaw(len(idx), d)
	ParallelForCost(len(idx), d, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := idx[i]
			if row < 0 || row >= table.shape[0] {
				panic(fmt.Sprintf("tensor: Gather index %d out of range [0,%d)", row, table.shape[0]))
			}
			copy(out.data[i*d:(i+1)*d], table.data[row*d:(row+1)*d])
		}
	})
	return out
}

// ScatterAddRows adds each row of src (n, d) into dst (v, d) at the row
// given by idx[i]. Rows may repeat; accumulation is sequential to stay
// deterministic. This is the embedding-gradient primitive.
func ScatterAddRows(dst *Tensor, idx []int, src *Tensor) {
	if len(dst.shape) != 2 || len(src.shape) != 2 || dst.shape[1] != src.shape[1] {
		panic(fmt.Sprintf("tensor: ScatterAddRows shapes %v, %v", dst.shape, src.shape))
	}
	if len(idx) != src.shape[0] {
		panic("tensor: ScatterAddRows index length mismatch")
	}
	d := dst.shape[1]
	for i, row := range idx {
		drow := dst.data[row*d : (row+1)*d]
		srow := src.data[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			drow[j] += srow[j]
		}
	}
}
