package main

// Adapter: calls into internal/data (through the facade's Generator and
// Batch aliases) and the benchmark-owned generator of the awd-wide task.

import "avgpipe"

func nextBatch(g generator, size int) *batch { return g.NextBatch(size) }

// firstMicro is the first of the `micro` slices the pipeline would cut
// a batch into.
func firstMicro(b *batch, micro int) *batch { return b.Slice(micro)[0] }

// wideGen widens the stock langmodel stream's 16 token ids into a
// `rows`-row id space, the way a word-level corpus sits on an AWD-LSTM
// embedding: wide id = state + 16·bucket, buckets drawn from a skewed
// (u⁸) distribution so a few rows are hot and most are untouched in any
// one batch. Targets stay the 16 Markov states.
type wideGen struct {
	inner   generator
	rng     *avgpipe.RNG
	states  int
	buckets int
	eval    *batch
}

func newWideGen(inner generator, seed int64, states, rows int) *wideGen {
	g := &wideGen{inner: inner, rng: avgpipe.NewRNG(seed ^ 0x5eed), states: states, buckets: rows / states}
	g.eval = g.widen(inner.EvalBatch())
	return g
}

func (g *wideGen) widen(b *batch) *batch {
	x := avgpipe.NewTensor(b.X.Shape()...)
	src, dst := b.X.Data(), x.Data()
	for i, v := range src {
		u := g.rng.Float64()
		u *= u
		u *= u
		bucket := int(u * u * float64(g.buckets))
		if bucket >= g.buckets {
			bucket = g.buckets - 1
		}
		dst[i] = v + float32(g.states*bucket)
	}
	return &batch{X: x, Targets: b.Targets, Size: b.Size}
}

func (g *wideGen) NextBatch(size int) *batch { return g.widen(g.inner.NextBatch(size)) }
func (g *wideGen) EvalBatch() *batch         { return g.eval }
func (g *wideGen) Name() string              { return "awd-wide" }
