package nn

import (
	"fmt"

	"avgpipe/internal/tensor"
)

// Linear is a fully connected layer: y = x @ W + b, with x shaped
// (rows, in) and y shaped (rows, out).
type Linear struct {
	In, Out int
	W, B    *Param
}

// NewLinear constructs a Xavier-initialized dense layer.
func NewLinear(rng *tensor.RNG, in, out int) *Linear {
	return &Linear{
		In:  in,
		Out: out,
		W:   NewParam(fmt.Sprintf("linear.W[%dx%d]", in, out), rng.Xavier(in, out)),
		B:   NewParam(fmt.Sprintf("linear.B[%d]", out), tensor.New(out)),
	}
}

// Forward computes x@W + b in one fused pass and stashes x.
func (l *Linear) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	ctx.Push(x)
	return tensor.MatMulBiasAct(x, l.W.W, l.B.W, tensor.ActIdentity)
}

// Backward returns dy @ Wᵀ and accumulates xᵀ@dy into dW, column sums
// into dB, using the fused accumulate kernels (no intermediate product
// tensors).
func (l *Linear) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	x := ctx.Pop().(*tensor.Tensor)
	tensor.MatMulTransAAcc(l.W.G, x, dy)
	tensor.SumRowsAcc(l.B.G, dy)
	return tensor.MatMulTransB(dy, l.W.W)
}

// Params returns the layer's weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Embedding maps integer token IDs to dense vectors. The input tensor
// carries token IDs as float32 values (exact for the vocab sizes used
// here), shaped (rows, 1) or (rows). Its table is row-tracked (see
// Param).
type Embedding struct {
	Vocab, Dim int
	Table      *Param
}

// NewEmbedding constructs a normally initialized embedding table.
func NewEmbedding(rng *tensor.RNG, vocab, dim int) *Embedding {
	return &Embedding{
		Vocab: vocab,
		Dim:   dim,
		Table: NewParam(fmt.Sprintf("embedding[%dx%d]", vocab, dim), rng.Normal(0, 0.1, vocab, dim)).trackRows(),
	}
}

// Forward looks up each row's token and stashes the index list.
func (e *Embedding) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	idx := make([]int, x.Size())
	for i, v := range x.Data() {
		idx[i] = int(v)
		if idx[i] < 0 || idx[i] >= e.Vocab {
			panic(fmt.Sprintf("nn: embedding token %d out of vocab %d", idx[i], e.Vocab))
		}
	}
	ctx.Push(idx)
	return tensor.Gather(e.Table.W, idx)
}

// Backward scatters dy back into the table gradient; there is no gradient
// with respect to discrete token IDs, so it returns nil.
func (e *Embedding) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	idx := ctx.Pop().([]int)
	e.Table.ScatterAddGrad(idx, dy)
	return nil
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }
