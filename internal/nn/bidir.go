package nn

import (
	"fmt"

	"avgpipe/internal/tensor"
)

// Reverse flips a time-major (seqLen*batch, dim) tensor along the time
// axis. It is its own adjoint, so Backward reverses the gradient.
type Reverse struct {
	SeqLen int
}

func reverseTime(x *tensor.Tensor, seqLen int) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	reverseTimeInto(out, x, seqLen)
	return out
}

// reverseTimeInto writes x's time steps into dst in reverse order: one
// row-block copy per step.
func reverseTimeInto(dst, x *tensor.Tensor, seqLen int) {
	rows, dim := x.Dim(0), x.Dim(1)
	if rows%seqLen != 0 {
		panic(fmt.Sprintf("nn: Reverse rows %d not divisible by seqLen %d", rows, seqLen))
	}
	step := rows / seqLen * dim
	for t := 0; t < seqLen; t++ {
		copy(dst.Data()[(seqLen-1-t)*step:(seqLen-t)*step], x.Data()[t*step:(t+1)*step])
	}
}

// Forward reverses the sequence.
func (r *Reverse) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	return reverseTime(x, r.SeqLen)
}

// Backward reverses the gradient.
func (r *Reverse) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	return reverseTime(dy, r.SeqLen)
}

// Params returns nil; Reverse has no parameters.
func (r *Reverse) Params() []*Param { return nil }

// BiLSTM is a bidirectional LSTM: a forward-direction LSTM over the
// input and a backward-direction LSTM over the reversed input, with
// their hidden states concatenated per timestep — the encoder layer
// shape of GNMT. Output dim is 2×Hidden.
type BiLSTM struct {
	Fwd, Bwd *LSTM
	SeqLen   int
}

// NewBiLSTM constructs the two directional LSTMs.
func NewBiLSTM(rng *tensor.RNG, in, hidden, seqLen int) *BiLSTM {
	return &BiLSTM{
		Fwd:    NewLSTM(rng, in, hidden, seqLen),
		Bwd:    NewLSTM(rng, in, hidden, seqLen),
		SeqLen: seqLen,
	}
}

// Forward runs both directions and concatenates features.
func (b *BiLSTM) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	fw := b.Fwd.Forward(ctx, x, train)
	rev := reverseTime(x, b.SeqLen)
	bw := reverseTime(b.Bwd.Forward(ctx, rev, train), b.SeqLen)
	rows := fw.Dim(0)
	h := fw.Dim(1)
	out := tensor.New(rows, 2*h)
	setCols(out, fw, 0)
	setCols(out, bw, h)
	return out
}

// Backward splits the gradient per direction and accumulates both LSTMs'
// parameter gradients. Stash discipline: Bwd's context entry was pushed
// after Fwd's, so it must pop first.
func (b *BiLSTM) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	h := dy.Dim(1) / 2
	dFw := splitCols(dy, 0, h)
	dBw := reverseTime(splitCols(dy, h, 2*h), b.SeqLen)
	dxBw := reverseTime(b.Bwd.Backward(ctx, dBw), b.SeqLen)
	dxFw := b.Fwd.Backward(ctx, dFw)
	return tensor.Add(dxFw, dxBw)
}

// Params returns both directions' parameters.
func (b *BiLSTM) Params() []*Param {
	return append(b.Fwd.Params(), b.Bwd.Params()...)
}
