package tensor

import (
	"fmt"
	"math"
)

// checkSameShape panics unless a and b have identical shapes.
func checkSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := borrowRaw(a.shape...)
	ParallelFor(len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = a.data[i] + b.data[i]
		}
	})
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSameShape("Sub", a, b)
	out := borrowRaw(a.shape...)
	parallelVec(len(a.data), func(lo, hi int) {
		vecSub(out.data[lo:hi], a.data[lo:hi], b.data[lo:hi])
	})
	return out
}

// Mul returns the elementwise (Hadamard) product a * b.
func Mul(a, b *Tensor) *Tensor {
	checkSameShape("Mul", a, b)
	out := borrowRaw(a.shape...)
	ParallelFor(len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = a.data[i] * b.data[i]
		}
	})
	return out
}

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor {
	checkSameShape("Div", a, b)
	out := borrowRaw(a.shape...)
	ParallelFor(len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = a.data[i] / b.data[i]
		}
	})
	return out
}

// AddInPlace sets a += b elementwise and returns a.
func (t *Tensor) AddInPlace(b *Tensor) *Tensor {
	checkSameShape("AddInPlace", t, b)
	parallelVec(len(t.data), func(lo, hi int) {
		vecAdd(t.data[lo:hi], b.data[lo:hi])
	})
	return t
}

// SubInPlace sets a -= b elementwise and returns a.
func (t *Tensor) SubInPlace(b *Tensor) *Tensor {
	checkSameShape("SubInPlace", t, b)
	parallelVec(len(t.data), func(lo, hi int) {
		vecSub(t.data[lo:hi], t.data[lo:hi], b.data[lo:hi])
	})
	return t
}

// MulInPlace sets a *= b elementwise and returns a.
func (t *Tensor) MulInPlace(b *Tensor) *Tensor {
	checkSameShape("MulInPlace", t, b)
	parallelVec(len(t.data), func(lo, hi int) {
		vecMul(t.data[lo:hi], b.data[lo:hi])
	})
	return t
}

// AxpyInPlace sets t += alpha * b elementwise and returns t. This is the
// core update primitive for optimizers and elastic averaging.
func (t *Tensor) AxpyInPlace(alpha float32, b *Tensor) *Tensor {
	checkSameShape("AxpyInPlace", t, b)
	parallelVec(len(t.data), func(lo, hi int) {
		axpyAdd(alpha, b.data[lo:hi], t.data[lo:hi])
	})
	return t
}

// Dilute sets w = (1−alpha)·w + alpha·ref and snap = w in one pass, each
// product rounded on its own and then summed — exactly
// w.ScaleInPlace(1−alpha); w.AxpyInPlace(alpha, ref); snap.CopyFrom(w).
func Dilute(alpha float32, w, ref, snap *Tensor) {
	checkSameShape("Dilute", w, ref)
	checkSameShape("Dilute", w, snap)
	keep := 1 - alpha
	parallelVec(len(w.data), func(lo, hi int) {
		dilute(keep, alpha, w.data[lo:hi], ref.data[lo:hi], snap.data[lo:hi])
	})
}

// ScaleInPlace multiplies every element by alpha and returns t.
func (t *Tensor) ScaleInPlace(alpha float32) *Tensor {
	parallelVec(len(t.data), func(lo, hi int) {
		vecScale(alpha, t.data[lo:hi])
	})
	return t
}

// Scale returns alpha * t as a new tensor.
func Scale(alpha float32, t *Tensor) *Tensor {
	out := borrowRaw(t.shape...)
	ParallelFor(len(t.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = alpha * t.data[i]
		}
	})
	return out
}

// AddScalar returns t + c elementwise.
func AddScalar(t *Tensor, c float32) *Tensor {
	out := borrowRaw(t.shape...)
	ParallelFor(len(t.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = t.data[i] + c
		}
	})
	return out
}

// Neg returns -t.
func Neg(t *Tensor) *Tensor { return Scale(-1, t) }

// Apply returns f mapped over every element of t.
func Apply(t *Tensor, f func(float32) float32) *Tensor {
	out := borrowRaw(t.shape...)
	ParallelFor(len(t.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = f(t.data[i])
		}
	})
	return out
}

// Tanh32 is the one definition of tanh on a float32: float64 math.Tanh,
// rounded once. TanhInto returns exactly its value for every input.
func Tanh32(x float32) float32 { return float32(math.Tanh(float64(x))) }

// Sigmoid32 is the one definition of the logistic function on a
// float32: float64 math.Exp, rounded once. SigmoidInto returns exactly its
// value for every input.
func Sigmoid32(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }

// TanhInto sets dst[i] = Tanh32(src[i]) for every i < len(dst): the one
// vector entry point of tanh, which Tanh, the fused kernels and the
// compiled lowering all call. dst may be src but must not otherwise
// overlap it. With AVX2 it runs the verified kernel of kernels_amd64.s,
// bit-identical to Tanh32 on every float32.
func TanhInto(dst, src []float32) { actInto(ActTanh, dst, src) }

// SigmoidInto sets dst[i] = Sigmoid32(src[i]) for every i < len(dst); see
// TanhInto.
func SigmoidInto(dst, src []float32) { actInto(ActSigmoid, dst, src) }

// Tanh returns tanh applied elementwise.
func Tanh(t *Tensor) *Tensor { return applyAct(t, ActTanh) }

// Sigmoid returns the logistic function applied elementwise.
func Sigmoid(t *Tensor) *Tensor { return applyAct(t, ActSigmoid) }

// applyAct returns act(t) through the activation kernels, fanned out in
// chunks of whole 8-blocks.
func applyAct(t *Tensor, act Act) *Tensor {
	out := borrowRaw(t.shape...)
	parallelFor(len(t.data), len(t.data), 8, func(lo, hi int) {
		actInto(act, out.data[lo:hi], t.data[lo:hi])
	})
	return out
}

// ReLU returns max(x, 0) elementwise.
func ReLU(t *Tensor) *Tensor {
	return Apply(t, func(x float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// Exp returns e^x elementwise.
func Exp(t *Tensor) *Tensor {
	return Apply(t, func(x float32) float32 { return float32(math.Exp(float64(x))) })
}

// Log returns ln(x) elementwise.
func Log(t *Tensor) *Tensor {
	return Apply(t, func(x float32) float32 { return float32(math.Log(float64(x))) })
}

// Sqrt returns the elementwise square root.
func Sqrt(t *Tensor) *Tensor {
	return Apply(t, func(x float32) float32 { return float32(math.Sqrt(float64(x))) })
}

// AddRowVector returns m with v added to every row. m is (rows, cols),
// v is (cols). This is the bias-broadcast primitive.
func AddRowVector(m, v *Tensor) *Tensor {
	if len(m.shape) != 2 || len(v.shape) != 1 || m.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v, %v", m.shape, v.shape))
	}
	rows, cols := m.shape[0], m.shape[1]
	out := borrowRaw(rows, cols)
	ParallelFor(rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			mr := m.data[r*cols : (r+1)*cols]
			or := out.data[r*cols : (r+1)*cols]
			for c := 0; c < cols; c++ {
				or[c] = mr[c] + v.data[c]
			}
		}
	})
	return out
}

// MulRowVector returns m with each row multiplied elementwise by v.
func MulRowVector(m, v *Tensor) *Tensor {
	if len(m.shape) != 2 || len(v.shape) != 1 || m.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: MulRowVector shapes %v, %v", m.shape, v.shape))
	}
	rows, cols := m.shape[0], m.shape[1]
	out := borrowRaw(rows, cols)
	ParallelFor(rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			mr := m.data[r*cols : (r+1)*cols]
			or := out.data[r*cols : (r+1)*cols]
			for c := 0; c < cols; c++ {
				or[c] = mr[c] * v.data[c]
			}
		}
	})
	return out
}
