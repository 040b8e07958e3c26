package main

// Adapter: calls into internal/tensor made by the GEMM probe.

import (
	"fmt"
	"math"

	"avgpipe/internal/tensor"
)

// gemm multiplies (m×k)·(k×n) once and returns one output element so
// the call cannot be optimised away.
type gemm struct{ a, b *tensor.Tensor }

func newGemm(seed int64, m, k, n int) *gemm {
	g := tensor.NewRNG(seed)
	return &gemm{a: g.Uniform(-1, 1, m, k), b: g.Uniform(-1, 1, k, n)}
}

func (g *gemm) run() float32 {
	out := tensor.MatMul(g.a, g.b)
	v := out.Data()[0]
	out.Release()
	return v
}

// seededDeltas is an update's worth of tensors with the parameters'
// shapes and small seeded values, like a real round's delta.
func seededDeltas(seed int64, ps []*param) []*tensor.Tensor {
	g := tensor.NewRNG(seed)
	ds := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		ds[i] = g.Uniform(-1e-3, 1e-3, p.W.Shape()...)
	}
	return ds
}

// firstTensorDiff names the first element at which two tensor lists
// differ in their bits ("" when they are identical).
func firstTensorDiff(a, b []*tensor.Tensor) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d tensors vs %d", len(a), len(b))
	}
	for i := range a {
		ad, bd := a[i].Data(), b[i].Data()
		if len(ad) != len(bd) {
			return fmt.Sprintf("tensor %d: %d elements vs %d", i, len(ad), len(bd))
		}
		for j := range ad {
			if math.Float32bits(ad[j]) != math.Float32bits(bd[j]) {
				return fmt.Sprintf("tensor %d element %d: %v vs %v", i, j, ad[j], bd[j])
			}
		}
	}
	return ""
}
