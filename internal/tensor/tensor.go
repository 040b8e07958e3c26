// Package tensor implements a dense float32 tensor library with
// goroutine-parallel kernels. It is the computational substrate for the
// AvgPipe reproduction: all neural-network math (matrix products, gate
// activations, normalizations) runs on these tensors.
//
// Tensors are always contiguous in row-major order. Shapes are immutable
// after construction; Reshape returns a view sharing the same backing
// storage. The zero value of Tensor is not usable; construct with New,
// Zeros, FromSlice, or the random initializers.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, contiguous, row-major float32 tensor.
type Tensor struct {
	data  []float32
	shape []int
	// bucket is 1+arena bucket index when the backing storage came from
	// the buffer arena, 0 for plain allocations and views (see arena.go).
	bucket uint8
	// free marks an arena tensor that has been Released; guards against
	// double release.
	free bool
}

// New returns a zero-filled tensor with the given shape. A tensor with no
// dimensions is a scalar holding one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Formatted in a helper: fmt.Sprintf(..., shape) here would make
			// escape analysis leak the variadic slice, heap-allocating it at
			// every call site even on the non-panic path.
			panicNegativeDim(d)
		}
		n *= d
	}
	sh := make([]int, len(shape))
	copy(sh, shape)
	return &Tensor{data: make([]float32, n), shape: sh}
}

func panicNegativeDim(d int) {
	panic(fmt.Sprintf("tensor: negative dimension %d in shape", d))
}

// Zeros is an alias for New, provided for readability at call sites.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly prod(shape) elements.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{data: data, shape: append([]int(nil), shape...)}
}

// Scalar returns a 0-dimensional tensor holding v.
func Scalar(v float32) *Tensor { return FromSlice([]float32{v}) }

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t. The copy is drawn from the buffer
// arena, so short-lived clones (activation stashes, per-step snapshots)
// can be Released when they retire.
func (t *Tensor) Clone() *Tensor {
	c := borrowRaw(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must match in size.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Reshape returns a view of t with a new shape of the same total size.
// One dimension may be -1 to be inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer, n := -1, 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape allows at most one -1 dimension")
			}
			infer = i
		} else {
			n *= d
		}
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / n
		n *= shape[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v", t.shape, len(t.data), shape))
	}
	return &Tensor{data: t.data, shape: shape}
}

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Row returns a view of row i of a 2-D tensor (shares storage).
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	cols := t.shape[1]
	return &Tensor{data: t.data[i*cols : (i+1)*cols], shape: []int{cols}}
}

// SliceRows returns a view of rows [lo, hi) of the leading dimension.
// The view shares storage with t.
func (t *Tensor) SliceRows(lo, hi int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: SliceRows requires at least one dimension")
	}
	if lo < 0 || hi > t.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range for leading dim %d", lo, hi, t.shape[0]))
	}
	inner := 1
	for _, d := range t.shape[1:] {
		inner *= d
	}
	shape := append([]int{hi - lo}, t.shape[1:]...)
	return &Tensor{data: t.data[lo*inner : hi*inner], shape: shape}
}

// String renders small tensors fully and large tensors by shape summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor%v%v", t.shape, t.data)
		return b.String()
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.shape, len(t.data))
}

// HasNaN reports whether any element is NaN or Inf.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
	}
	return false
}
