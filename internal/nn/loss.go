package nn

import (
	"fmt"

	"avgpipe/internal/tensor"
)

// CrossEntropy computes mean softmax cross-entropy between row logits
// (rows, classes) and integer targets, returning the loss and dLoss/dlogits.
// A target of -1 marks a padding row that contributes neither loss nor
// gradient.
func CrossEntropy(logits *tensor.Tensor, targets []int) (float64, *tensor.Tensor) {
	rows, cols := logits.Dim(0), logits.Dim(1)
	if len(targets) != rows {
		panic(fmt.Sprintf("nn: CrossEntropy %d targets for %d rows", len(targets), rows))
	}
	ls := tensor.LogSoftmaxRows(logits)
	var loss float64
	active := 0
	for i, t := range targets {
		if t < 0 {
			continue
		}
		// Indexed directly: At's variadic index list costs an allocation
		// per row.
		loss -= float64(ls.Data()[i*cols+t])
		active++
	}
	ls.Release()
	if active == 0 {
		return 0, tensor.Borrow(rows, cols)
	}
	loss /= float64(active)
	grad := tensor.Borrow(rows, cols)
	sm := tensor.SoftmaxRows(logits)
	inv := float32(1 / float64(active))
	for i, t := range targets {
		if t < 0 {
			continue
		}
		gr := grad.Data()[i*cols : (i+1)*cols]
		sr := sm.Data()[i*cols : (i+1)*cols]
		for j := range gr {
			gr[j] = sr[j] * inv
		}
		gr[t] -= inv
	}
	sm.Release()
	return loss, grad
}

// Accuracy returns the fraction of rows whose argmax matches the target;
// targets of -1 are skipped.
func Accuracy(logits *tensor.Tensor, targets []int) float64 {
	am := tensor.ArgMaxRows(logits)
	correct, active := 0, 0
	for i, t := range targets {
		if t < 0 {
			continue
		}
		active++
		if am[i] == t {
			correct++
		}
	}
	if active == 0 {
		return 0
	}
	return float64(correct) / float64(active)
}

// MeanPoolTime averages a time-major (seqLen*batch, dim) tensor over time
// into (batch, dim); the pooling layer at the top of the classifier
// workload.
type MeanPoolTime struct {
	SeqLen int
}

// Forward averages each batch element's timesteps.
func (m *MeanPoolTime) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	rows, dim := x.Dim(0), x.Dim(1)
	if rows%m.SeqLen != 0 {
		panic(fmt.Sprintf("nn: MeanPoolTime rows %d not divisible by seqLen %d", rows, m.SeqLen))
	}
	batch := rows / m.SeqLen
	out := tensor.New(batch, dim)
	meanPoolForwardInto(x, out, m.SeqLen)
	ctx.Push(batch)
	return out
}

// meanPoolForwardInto accumulates the time average of x into out, which
// must be zeroed; shared verbatim by the interpreter and the compiled
// lowering so both paths are bit-identical.
func meanPoolForwardInto(x, out *tensor.Tensor, seqLen int) {
	batch, dim := out.Dim(0), out.Dim(1)
	inv := float32(1 / float64(seqLen))
	for t := 0; t < seqLen; t++ {
		for b := 0; b < batch; b++ {
			src := x.Data()[(t*batch+b)*dim : (t*batch+b+1)*dim]
			dst := out.Data()[b*dim : (b+1)*dim]
			for j := range dst {
				dst[j] += src[j] * inv
			}
		}
	}
}

// Backward broadcasts dy/T back across timesteps.
func (m *MeanPoolTime) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	batch := ctx.Pop().(int)
	dim := dy.Dim(1)
	dx := tensor.New(m.SeqLen*batch, dim)
	meanPoolBackwardInto(dy, dx, m.SeqLen)
	return dx
}

// meanPoolBackwardInto broadcasts dy/T across timesteps into dx, fully
// overwriting it; shared verbatim by the interpreter and the compiled
// lowering.
func meanPoolBackwardInto(dy, dx *tensor.Tensor, seqLen int) {
	batch, dim := dy.Dim(0), dy.Dim(1)
	inv := float32(1 / float64(seqLen))
	for t := 0; t < seqLen; t++ {
		for b := 0; b < batch; b++ {
			src := dy.Data()[b*dim : (b+1)*dim]
			dst := dx.Data()[(t*batch+b)*dim : (t*batch+b+1)*dim]
			for j := range dst {
				dst[j] = src[j] * inv
			}
		}
	}
}

// Params returns nil; pooling has no parameters.
func (m *MeanPoolTime) Params() []*Param { return nil }
