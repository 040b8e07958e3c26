package tensor

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source for tensor initialization. All
// experiments seed their own RNG so runs are exactly reproducible.
type RNG struct{ r *rand.Rand }

// NewRNG returns a seeded generator.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Uniform returns a tensor with elements drawn from U[lo, hi).
func (g *RNG) Uniform(lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + span*g.r.Float32()
	}
	return t
}

// Normal returns a tensor with elements drawn from N(mean, std²).
func (g *RNG) Normal(mean, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = mean + std*float32(g.r.NormFloat64())
	}
	return t
}

// Xavier returns a tensor initialized with Glorot-uniform scaling for a
// layer with the given fan-in and fan-out (the first two dimensions).
func (g *RNG) Xavier(shape ...int) *Tensor {
	fanIn, fanOut := fans(shape)
	limit := float32(math.Sqrt(6 / float64(fanIn+fanOut)))
	return g.Uniform(-limit, limit, shape...)
}

func fans(shape []int) (fanIn, fanOut int) {
	switch len(shape) {
	case 0:
		return 1, 1
	case 1:
		return shape[0], shape[0]
	default:
		return shape[0], shape[1]
	}
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Bernoulli returns a {0,1} mask tensor where each element is 1 with
// probability p. Used by dropout.
func (g *RNG) Bernoulli(p float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		if g.r.Float64() < p {
			t.data[i] = 1
		}
	}
	return t
}
