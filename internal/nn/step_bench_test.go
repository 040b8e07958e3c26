package nn_test

import (
	"math/rand"
	"testing"

	"avgpipe/internal/nn"
	"avgpipe/internal/optim"
	"avgpipe/internal/tensor"
)

// BenchmarkKernelEmbeddingStep is the post-backward phase of the awd-wide
// embedding — a 32768×32 table behind 320 tokens skewed toward low rows,
// as the awd-dist workload feeds it: each iteration scatters the batch's
// gradient, then clips, takes a plain SGD step and zeroes the gradient.
func BenchmarkKernelEmbeddingStep(b *testing.B) {
	const rows, dim, tokens, states = 32768, 32, 320, 16
	rng := tensor.NewRNG(10)
	p := nn.NewEmbedding(rng, rows, dim).Table
	r := rand.New(rand.NewSource(10))
	idx := make([]int, tokens)
	for i := range idx {
		u := r.Float64()
		u *= u
		u *= u
		idx[i] = r.Intn(states) + states*int(u*u*rows/states)
	}
	dy := rng.Normal(0, 1, tokens, dim)
	ps := []*nn.Param{p}
	opt := optim.NewSGD(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScatterAddGrad(idx, dy)
		optim.ClipGradNorm(ps, 0.25)
		opt.Step(ps)
		nn.ZeroGrads(ps)
	}
}
