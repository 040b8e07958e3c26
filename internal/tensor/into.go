package tensor

import "fmt"

// Zero-allocation kernel variants for the compiled execution path
// (internal/compiled): each writes into caller-provided storage —
// planned arena slots bound once per pipeline stage — instead of
// borrowing from the arena per call. Every variant evaluates the exact
// same float expressions, in the same order, as the allocating kernel
// it mirrors, so replaying a compiled stage is bit-identical to the
// interpreter (compiled_equiv tests in internal/core enforce this
// end-to-end).

// ApplyInto sets dst[i] = f(t[i]), fully overwriting dst.
func ApplyInto(dst, t *Tensor, f func(float32) float32) {
	checkSameShape("ApplyInto", dst, t)
	n := len(t.data)
	parallelFor(n, n, 1, vecOperands{o: dst.data, a: t.data, f: f}, func(v vecOperands, lo, hi int) {
		for i := lo; i < hi; i++ {
			v.o[i] = v.f(v.a[i])
		}
	})
}

// MulInto sets dst = a * b elementwise, fully overwriting dst.
func MulInto(dst, a, b *Tensor) {
	checkSameShape("MulInto", a, b)
	checkSameShape("MulInto", dst, a)
	n := len(a.data)
	parallelFor(n, n, 1, vecOperands{o: dst.data, a: a.data, b: b.data}, func(v vecOperands, lo, hi int) {
		for i := lo; i < hi; i++ {
			v.o[i] = v.a[i] * v.b[i]
		}
	})
}

// GatherInto copies table rows selected by idx into dst (len(idx), d),
// fully overwriting dst. Mirrors Gather.
func GatherInto(dst, table *Tensor, idx []int) {
	if len(table.shape) != 2 {
		panic("tensor: GatherInto requires a 2-D table")
	}
	d := table.shape[1]
	if len(dst.shape) != 2 || dst.shape[0] != len(idx) || dst.shape[1] != d {
		panic(fmt.Sprintf("tensor: GatherInto dst %v for %d rows of width %d", dst.shape, len(idx), d))
	}
	ParallelForCost(len(idx), d, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := idx[i]
			if row < 0 || row >= table.shape[0] {
				panic(fmt.Sprintf("tensor: GatherInto index %d out of range [0,%d)", row, table.shape[0]))
			}
			copy(dst.data[i*d:(i+1)*d], table.data[row*d:(row+1)*d])
		}
	})
}

// BernoulliInto fills t with a {0,1} mask where each element is 1 with
// probability p, consuming the generator in the exact element order of
// Bernoulli. Zeros are written explicitly: the destination is reused
// slot storage, not a fresh zeroed tensor.
func (g *RNG) BernoulliInto(t *Tensor, p float64) {
	for i := range t.data {
		if g.r.Float64() < p {
			t.data[i] = 1
		} else {
			t.data[i] = 0
		}
	}
}
