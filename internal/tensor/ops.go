package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
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
	AddInto(out, a, b)
	return out
}

// AddInto sets dst = a + b elementwise, fully overwriting dst: Add
// without the allocation.
func AddInto(dst, a, b *Tensor) {
	checkSameShape("AddInto", a, b)
	checkSameShape("AddInto", dst, a)
	parallelVec(len(a.data), vecOperands{o: dst.data, a: a.data, b: b.data}, func(v vecOperands, lo, hi int) {
		vecAddTo(v.o[lo:hi], v.a[lo:hi], v.b[lo:hi])
	})
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSameShape("Sub", a, b)
	out := borrowRaw(a.shape...)
	parallelVec(len(a.data), vecOperands{o: out.data, a: a.data, b: b.data}, func(v vecOperands, lo, hi int) {
		vecSub(v.o[lo:hi], v.a[lo:hi], v.b[lo:hi])
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

// AddInPlace sets a += b elementwise and returns a.
func (t *Tensor) AddInPlace(b *Tensor) *Tensor {
	checkSameShape("AddInPlace", t, b)
	parallelVec(len(t.data), vecOperands{o: t.data, b: b.data}, func(v vecOperands, lo, hi int) {
		vecAdd(v.o[lo:hi], v.b[lo:hi])
	})
	return t
}

// SubInPlace sets a -= b elementwise and returns a.
func (t *Tensor) SubInPlace(b *Tensor) *Tensor {
	checkSameShape("SubInPlace", t, b)
	parallelVec(len(t.data), vecOperands{o: t.data, b: b.data}, func(v vecOperands, lo, hi int) {
		vecSub(v.o[lo:hi], v.o[lo:hi], v.b[lo:hi])
	})
	return t
}

// MulInPlace sets a *= b elementwise and returns a.
func (t *Tensor) MulInPlace(b *Tensor) *Tensor {
	checkSameShape("MulInPlace", t, b)
	parallelVec(len(t.data), vecOperands{o: t.data, b: b.data}, func(v vecOperands, lo, hi int) {
		vecMul(v.o[lo:hi], v.b[lo:hi])
	})
	return t
}

// AxpyInPlace sets t += alpha * b elementwise and returns t. This is the
// core update primitive for optimizers and elastic averaging.
func (t *Tensor) AxpyInPlace(alpha float32, b *Tensor) *Tensor {
	checkSameShape("AxpyInPlace", t, b)
	parallelVec(len(t.data), vecOperands{o: t.data, b: b.data, alpha: alpha}, func(v vecOperands, lo, hi int) {
		axpyAdd(v.alpha, v.b[lo:hi], v.o[lo:hi])
	})
	return t
}

// Dilute sets w = (1−alpha)·w + alpha·ref and snap = w in one pass, each
// product rounded on its own and then summed — exactly
// w.ScaleInPlace(1−alpha); w.AxpyInPlace(alpha, ref); snap.CopyFrom(w).
// It reports whether every coefficient of the new w is finite, which the
// same pass finds out.
func Dilute(alpha float32, w, ref, snap *Tensor) (finite bool) {
	checkSameShape("Dilute", w, ref)
	checkSameShape("Dilute", w, snap)
	a, b, n := 1-alpha, alpha, len(w.data)
	if !fansOut(n, n/vectorOpsPerUnit, 8) {
		finite, _ = dilute(a, b, w.data, ref.data, snap.data, 0, nil, nil)
		return finite
	}
	var nonFinite atomic.Bool
	fanOut(n, 8, func(lo, hi int) {
		if ok, _ := dilute(a, b, w.data[lo:hi], ref.data[lo:hi], snap.data[lo:hi], 0, nil, nil); !ok {
			nonFinite.Store(true)
		}
	})
	return !nonFinite.Load()
}

// ScaleInPlace multiplies every element by alpha and returns t.
func (t *Tensor) ScaleInPlace(alpha float32) *Tensor {
	parallelVec(len(t.data), vecOperands{o: t.data, alpha: alpha}, func(v vecOperands, lo, hi int) {
		vecScale(v.alpha, v.o[lo:hi])
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

// geluC is sqrt(2/pi), the tanh approximation's scale.
const geluC = 0.7978845608028654

// Gelu32 is the one definition of GELU (tanh approximation) on a float32:
// the float64 expression below, rounded once. GeluInto returns exactly
// its value for every input.
func Gelu32(v float32) float32 {
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(geluC*(x+0.044715*x*x*x))))
}

// GeluDeriv32 is the one definition of GELU's derivative on a float32;
// GeluDerivInto returns exactly its value for every input.
func GeluDeriv32(v float32) float32 {
	x := float64(v)
	inner := geluC * (x + 0.044715*x*x*x)
	t := math.Tanh(inner)
	dinner := geluC * (1 + 3*0.044715*x*x)
	return float32(0.5*(1+t) + 0.5*x*(1-t*t)*dinner)
}

// TanhInto sets dst[i] = Tanh32(src[i]) for every i < len(dst): the one
// vector entry point of tanh, which Tanh, the nn lowering and (through
// actInto) the fused kernels call. dst may be src but must not otherwise
// overlap it. With AVX2 it runs the verified kernel of kernels_amd64.s,
// bit-identical to Tanh32 on every float32. Long slices fan out over the
// pool in chunks of whole 8-blocks.
func TanhInto(dst, src []float32) { actChunks(ActTanh, dst, src) }

// SigmoidInto sets dst[i] = Sigmoid32(src[i]) for every i < len(dst); see
// TanhInto.
func SigmoidInto(dst, src []float32) { actChunks(ActSigmoid, dst, src) }

// GeluInto sets dst[i] = Gelu32(src[i]) for every i < len(dst); see
// TanhInto.
func GeluInto(dst, src []float32) { actChunks(actGELU, dst, src) }

// GeluDerivInto sets dst[i] = GeluDeriv32(src[i]) for every i < len(dst);
// see TanhInto.
func GeluDerivInto(dst, src []float32) { actChunks(actGELUDeriv, dst, src) }

// Tanh returns tanh applied elementwise.
func Tanh(t *Tensor) *Tensor { return applyAct(t, ActTanh) }

// Sigmoid returns the logistic function applied elementwise.
func Sigmoid(t *Tensor) *Tensor { return applyAct(t, ActSigmoid) }

func applyAct(t *Tensor, act Act) *Tensor {
	out := borrowRaw(t.shape...)
	actChunks(act, out.data, t.data)
	return out
}

// actChunks runs the activation kernel over dst, fanned out in chunks of
// whole 8-blocks, each element costed as one unit.
func actChunks(act Act, dst, src []float32) {
	v := vecOperands{o: dst, a: src[:len(dst)], act: act}
	parallelFor(len(dst), len(dst), 8, v, func(v vecOperands, lo, hi int) {
		actInto(v.act, v.o[lo:hi], v.a[lo:hi])
	})
}

// vecOperands carries an elementwise kernel's slices and scalars to its
// chunk function as a value (see gemmOperands).
type vecOperands struct {
	o, a, b     []float32
	alpha, beta float32
	act         Act
	f           func(float32) float32
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
