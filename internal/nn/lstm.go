package nn

import (
	"fmt"

	"avgpipe/internal/tensor"
)

// LSTM is a single-layer long short-term memory RNN processing time-major
// input (seqLen*batch, in) into time-major output (seqLen*batch, hidden).
// Gate columns are packed [input | forget | cell | output].
//
// RecurrentDropP > 0 enables DropConnect on the recurrent weights (the
// "weight-dropped" LSTM of the AWD workload): a Bernoulli mask is sampled
// over Wh once per forward pass and applied to both the forward matmul and
// the weight gradient.
type LSTM struct {
	In, Hidden, SeqLen int
	RecurrentDropP     float64

	Wx, Wh, B *Param
	rng       *tensor.RNG
}

// NewLSTM constructs an LSTM with Xavier-initialized projections and a
// forget-gate bias of 1 (standard practice for trainability).
func NewLSTM(rng *tensor.RNG, in, hidden, seqLen int) *LSTM {
	b := tensor.New(4 * hidden)
	for j := hidden; j < 2*hidden; j++ {
		b.Data()[j] = 1
	}
	return &LSTM{
		In: in, Hidden: hidden, SeqLen: seqLen,
		Wx:  NewParam(fmt.Sprintf("lstm.Wx[%dx%d]", in, 4*hidden), rng.Xavier(in, 4*hidden)),
		Wh:  NewParam(fmt.Sprintf("lstm.Wh[%dx%d]", hidden, 4*hidden), rng.Xavier(hidden, 4*hidden)),
		B:   NewParam(fmt.Sprintf("lstm.B[%d]", 4*hidden), b),
		rng: rng,
	}
}

// lstmStep is the stash for one timestep's backward. The gates are owned
// by this step; hPrev/cPrev alias the previous step's gates.H/.C (or the
// borrowed initial zero states for step 0), so only the owning step
// releases them.
type lstmStep struct {
	hPrev, cPrev *tensor.Tensor
	gates        tensor.LSTMGates
}

// lstmSaved is the stash for the whole sequence.
type lstmSaved struct {
	x      *tensor.Tensor // the layer's own copy of the input, all steps
	steps  []lstmStep
	whMask *tensor.Tensor // nil unless weight-drop was active
	batch  int
}

// splitCols copies column range [lo,hi) of a 2-D tensor.
func splitCols(t *tensor.Tensor, lo, hi int) *tensor.Tensor {
	out := tensor.New(t.Dim(0), hi-lo)
	splitColsInto(out, t, lo)
	return out
}

// splitColsInto copies columns [lo, lo+dst cols) of src into dst.
func splitColsInto(dst, src *tensor.Tensor, lo int) {
	rows, cols := src.Dim(0), src.Dim(1)
	w := dst.Dim(1)
	for r := 0; r < rows; r++ {
		copy(dst.Data()[r*w:(r+1)*w], src.Data()[r*cols+lo:r*cols+lo+w])
	}
}

// setCols writes src into columns [lo,lo+src cols) of dst.
func setCols(dst, src *tensor.Tensor, lo int) {
	rows, cols := dst.Dim(0), dst.Dim(1)
	w := src.Dim(1)
	for r := 0; r < rows; r++ {
		copy(dst.Data()[r*cols+lo:r*cols+lo+w], src.Data()[r*w:(r+1)*w])
	}
}

// Forward unrolls the LSTM over SeqLen steps, stashing per-step gate
// activations for BPTT.
func (l *LSTM) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	rows := x.Dim(0)
	if rows%l.SeqLen != 0 {
		panic(fmt.Sprintf("nn: LSTM rows %d not divisible by seqLen %d", rows, l.SeqLen))
	}
	batch := rows / l.SeqLen
	hDim := l.Hidden

	wh := l.Wh.W
	var mask *tensor.Tensor
	if train && l.RecurrentDropP > 0 {
		mask = l.rng.Bernoulli(1-l.RecurrentDropP, wh.Shape()...)
		mask.ScaleInPlace(float32(1 / (1 - l.RecurrentDropP)))
		wh = tensor.Mul(wh, mask)
	}

	// The input projection does not depend on the recurrence: one matmul
	// over all SeqLen·batch rows gives every step's zx (rows are independent
	// outputs, so each is bit-identical to its own per-step product).
	zx := tensor.MatMul(x, l.Wx.W)
	saved := &lstmSaved{x: x.Clone(), whMask: mask, batch: batch}
	out := tensor.Borrow(rows, hDim)
	h := tensor.Borrow(batch, hDim)
	c := tensor.Borrow(batch, hDim)
	for t := 0; t < l.SeqLen; t++ {
		g := tensor.LSTMCellForward(zx.SliceRows(t*batch, (t+1)*batch), h, c, wh, l.B.W)
		saved.steps = append(saved.steps, lstmStep{hPrev: h, cPrev: c, gates: g})
		h, c = g.H, g.C
		copy(out.Data()[t*batch*hDim:(t+1)*batch*hDim], g.H.Data())
	}
	zx.Release()
	if mask != nil {
		wh.Release() // the masked copy; l.Wh.W itself is never pooled
	}
	ctx.Push(saved)
	return out
}

// Backward runs backpropagation through time, accumulating gradients for
// Wx, Wh, and B and returning the input gradient.
func (l *LSTM) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	saved := ctx.Pop().(*lstmSaved)
	batch := saved.batch
	rows := l.SeqLen * batch
	// Every step's dz rows, kept so dx is one product after the loop.
	dzAll := tensor.Borrow(rows, 4*l.Hidden)

	wh := l.Wh.W
	if saved.whMask != nil {
		wh = tensor.Mul(wh, saved.whMask)
	}
	dWh := tensor.Borrow(l.Wh.W.Shape()...)

	dhNext := tensor.Borrow(batch, l.Hidden)
	dcNext := tensor.Borrow(batch, l.Hidden)
	for t := l.SeqLen - 1; t >= 0; t-- {
		st := saved.steps[t]
		dyt := dy.SliceRows(t*batch, (t+1)*batch)
		dz, dcPrev := tensor.LSTMCellBackward(dyt, dhNext, dcNext, st.cPrev, st.gates)

		// The weight gradients stay per step, t descending, each product
		// formed in zeroed scratch and then added: one batched Xᵀ·DZ over
		// all rows would fold the per-step partial products into a single
		// running sum and change the rounding.
		tensor.MatMulTransAAcc(l.Wx.G, saved.x.SliceRows(t*batch, (t+1)*batch), dz)
		tensor.MatMulTransAAcc(dWh, st.hPrev, dz)
		tensor.SumRowsAcc(l.B.G, dz)

		copy(dzAll.Data()[t*batch*4*l.Hidden:], dz.Data())
		dhNext.Release()
		dhNext = tensor.MatMulTransB(dz, wh)
		dcNext.Release()
		dcNext = dcPrev

		// This step owns its gate buffers; hPrev/cPrev belong to the
		// previous step (released with its gates below).
		dz.Release()
		st.gates.Release()
	}
	// dx rows are independent outputs of dz·Wxᵀ, so one product over all
	// steps is bit-identical to the per-step ones.
	dx := tensor.MatMulTransB(dzAll, l.Wx.W)
	dzAll.Release()
	saved.x.Release()
	dhNext.Release()
	dcNext.Release()
	// The initial zero states are owned by Forward's borrow, not by any
	// step's gates.
	saved.steps[0].hPrev.Release()
	saved.steps[0].cPrev.Release()
	if saved.whMask != nil {
		dWh.MulInPlace(saved.whMask)
		wh.Release()
	}
	l.Wh.AddGrad(dWh)
	dWh.Release()
	return dx
}

// Params returns the LSTM's three parameter tensors.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
