package tensor_test

import (
	"testing"

	"avgpipe/internal/autograd"
	"avgpipe/internal/tensor"
)

// splitCols copies column range [lo,hi) of a 2-D tensor (test helper
// mirroring the composed LSTM implementation the fused kernels replaced).
func splitCols(t *tensor.Tensor, lo, hi int) *tensor.Tensor {
	rows, cols := t.Dim(0), t.Dim(1)
	w := hi - lo
	out := tensor.New(rows, w)
	for r := 0; r < rows; r++ {
		copy(out.Data()[r*w:(r+1)*w], t.Data()[r*cols+lo:r*cols+hi])
	}
	return out
}

func applyActComposed(t *tensor.Tensor, act tensor.Act) *tensor.Tensor {
	switch act {
	case tensor.ActReLU:
		return tensor.ReLU(t)
	case tensor.ActTanh:
		return tensor.Tanh(t)
	case tensor.ActSigmoid:
		return tensor.Sigmoid(t)
	default:
		return t
	}
}

// TestMatMulBiasActMatchesComposed: the fused forward must be
// bit-identical to act(AddRowVector(MatMul(a,b), bias)) for every
// activation, including shapes off the unroll boundary.
func TestMatMulBiasActMatchesComposed(t *testing.T) {
	rng := tensor.NewRNG(7)
	for _, sh := range []struct{ m, k, n int }{{4, 8, 8}, {3, 65, 17}, {1, 1, 1}, {9, 64, 30}} {
		a := rng.Uniform(-1, 1, sh.m, sh.k)
		b := rng.Uniform(-1, 1, sh.k, sh.n)
		bias := rng.Uniform(-1, 1, sh.n)
		for _, act := range []tensor.Act{tensor.ActIdentity, tensor.ActReLU, tensor.ActTanh, tensor.ActSigmoid} {
			got := tensor.MatMulBiasAct(a, b, bias, act)
			want := applyActComposed(tensor.AddRowVector(tensor.MatMul(a, b), bias), act)
			bitEqual(t, "MatMulBiasAct", got, want)
		}
		// nil bias skips the broadcast entirely.
		bitEqual(t, "MatMulBiasAct(nil bias)",
			tensor.MatMulBiasAct(a, b, nil, tensor.ActIdentity), tensor.MatMul(a, b))
	}
}

// TestAccumulateKernelsMatchComposed: the fused accumulates must be
// bit-identical to the add-a-fresh-product composition even when dst is
// non-zero (the micro-batch ≥ 2 case that forbids accumulating in place).
func TestAccumulateKernelsMatchComposed(t *testing.T) {
	rng := tensor.NewRNG(8)
	x := rng.Uniform(-1, 1, 6, 10)
	dy := rng.Uniform(-1, 1, 6, 15)

	dstA := rng.Uniform(-1, 1, 10, 15)
	wantA := dstA.Clone()
	tensor.MatMulTransAAcc(dstA, x, dy)
	wantA.AddInPlace(tensor.MatMulTransA(x, dy))
	bitEqual(t, "MatMulTransAAcc", dstA, wantA)

	dstB := rng.Uniform(-1, 1, 15)
	wantB := dstB.Clone()
	tensor.SumRowsAcc(dstB, dy)
	wantB.AddInPlace(tensor.SumRows(dy))
	bitEqual(t, "SumRowsAcc", dstB, wantB)

	w := rng.Uniform(-1, 1, 10, 15)
	into := tensor.New(6, 10)
	tensor.MatMulTransBInto(into, dy, w)
	bitEqual(t, "MatMulTransBInto", into, tensor.MatMulTransB(dy, w))
}

// composedLSTMCell replicates the pre-fusion op chain exactly (the old
// LSTM.Forward step body) for bitwise comparison.
func composedLSTMCell(xt, h, c, wx, wh, bias *tensor.Tensor) (i, f, g, o, cNew, tc, hNew *tensor.Tensor) {
	hd := h.Dim(1)
	z := tensor.AddRowVector(tensor.Add(tensor.MatMul(xt, wx), tensor.MatMul(h, wh)), bias)
	i = tensor.Sigmoid(splitCols(z, 0, hd))
	f = tensor.Sigmoid(splitCols(z, hd, 2*hd))
	g = tensor.Tanh(splitCols(z, 2*hd, 3*hd))
	o = tensor.Sigmoid(splitCols(z, 3*hd, 4*hd))
	cNew = tensor.Add(tensor.Mul(f, c), tensor.Mul(i, g))
	tc = tensor.Tanh(cNew)
	hNew = tensor.Mul(o, tc)
	return
}

func TestLSTMCellForwardMatchesComposed(t *testing.T) {
	rng := tensor.NewRNG(9)
	batch, in, hd := 5, 7, 11
	xt := rng.Uniform(-1, 1, batch, in)
	h := rng.Uniform(-1, 1, batch, hd)
	c := rng.Uniform(-1, 1, batch, hd)
	wx := rng.Uniform(-1, 1, in, 4*hd)
	wh := rng.Uniform(-1, 1, hd, 4*hd)
	bias := rng.Uniform(-1, 1, 4*hd)

	gates := tensor.LSTMCellForward(tensor.MatMul(xt, wx), h, c, wh, bias)
	i, f, g, o, cNew, tc, hNew := composedLSTMCell(xt, h, c, wx, wh, bias)
	bitEqual(t, "LSTM i", splitCols(gates.Z, 0, hd), i)
	bitEqual(t, "LSTM f", splitCols(gates.Z, hd, 2*hd), f)
	bitEqual(t, "LSTM g", splitCols(gates.Z, 2*hd, 3*hd), g)
	bitEqual(t, "LSTM o", splitCols(gates.Z, 3*hd, 4*hd), o)
	bitEqual(t, "LSTM c", gates.C, cNew)
	bitEqual(t, "LSTM tanhC", gates.TanhC, tc)
	bitEqual(t, "LSTM h", gates.H, hNew)
	gates.Release()
}

func TestLSTMCellBackwardMatchesComposed(t *testing.T) {
	rng := tensor.NewRNG(10)
	batch, in, hd := 4, 6, 9
	xt := rng.Uniform(-1, 1, batch, in)
	h := rng.Uniform(-1, 1, batch, hd)
	cPrev := rng.Uniform(-1, 1, batch, hd)
	wx := rng.Uniform(-1, 1, in, 4*hd)
	wh := rng.Uniform(-1, 1, hd, 4*hd)
	bias := rng.Uniform(-1, 1, 4*hd)
	dyt := rng.Uniform(-1, 1, batch, hd)
	dhNext := rng.Uniform(-1, 1, batch, hd)
	dcNext := rng.Uniform(-1, 1, batch, hd)

	gates := tensor.LSTMCellForward(tensor.MatMul(xt, wx), h, cPrev, wh, bias)
	dz, dcPrev := tensor.LSTMCellBackward(dyt, dhNext, dcNext, cPrev, gates)

	// The pre-fusion backward chain, op for op.
	one := func(t *tensor.Tensor) *tensor.Tensor {
		return tensor.Apply(t, func(v float32) float32 { return 1 - v*v })
	}
	sigD := func(t *tensor.Tensor) *tensor.Tensor {
		return tensor.Apply(t, func(v float32) float32 { return v * (1 - v) })
	}
	gi, gf := splitCols(gates.Z, 0, hd), splitCols(gates.Z, hd, 2*hd)
	gg, gO := splitCols(gates.Z, 2*hd, 3*hd), splitCols(gates.Z, 3*hd, 4*hd)
	dh := tensor.Add(dyt, dhNext)
	do := tensor.Mul(dh, gates.TanhC)
	dc := tensor.Add(dcNext, tensor.Mul(tensor.Mul(dh, gO), one(gates.TanhC)))
	di := tensor.Mul(dc, gg)
	dg := tensor.Mul(dc, gi)
	df := tensor.Mul(dc, cPrev)
	wantDcPrev := tensor.Mul(dc, gf)

	bitEqual(t, "dz[i]", splitCols(dz, 0, hd), tensor.Mul(di, sigD(gi)))
	bitEqual(t, "dz[f]", splitCols(dz, hd, 2*hd), tensor.Mul(df, sigD(gf)))
	bitEqual(t, "dz[g]", splitCols(dz, 2*hd, 3*hd), tensor.Mul(dg, one(gg)))
	bitEqual(t, "dz[o]", splitCols(dz, 3*hd, 4*hd), tensor.Mul(do, sigD(gO)))
	bitEqual(t, "dcPrev", dcPrev, wantDcPrev)
}

// TestMatMulBiasActCrossCheckAutograd verifies the fused forward/backward
// pair against the autograd tape: gradients computed with the fused
// accumulate kernels must match the tape's reverse-mode gradients.
func TestMatMulBiasActCrossCheckAutograd(t *testing.T) {
	rng := tensor.NewRNG(11)
	m, k, n := 5, 9, 7
	a := rng.Uniform(-1, 1, m, k)
	w := rng.Uniform(-1, 1, k, n)
	bias := rng.Uniform(-1, 1, n)

	tp := autograd.NewTape()
	av, wv, bv := tp.Var(a), tp.Var(w), tp.Var(bias)
	out := tp.Tanh(tp.AddRowVector(tp.MatMul(av, wv), bv))
	tp.Backward(tp.Sum(out))

	// Fused forward, then the fused-kernel backward: dLoss/dout = 1,
	// through tanh, then MatMulTransB / MatMulTransAAcc / SumRowsAcc.
	y := tensor.MatMulBiasAct(a, w, bias, tensor.ActTanh)
	bitEqual(t, "fused forward vs tape forward", y, out.T)
	dact := tensor.Apply(y, func(v float32) float32 { return 1 - v*v })
	da := tensor.MatMulTransB(dact, w)
	dw := tensor.New(k, n)
	tensor.MatMulTransAAcc(dw, a, dact)
	db := tensor.New(n)
	tensor.SumRowsAcc(db, dact)

	for _, c := range []struct {
		name      string
		got, want *tensor.Tensor
	}{
		{"dA", da, av.Grad}, {"dW", dw, wv.Grad}, {"dBias", db, bv.Grad},
	} {
		if e := autograd.MaxRelError(c.got, c.want); e > 1e-4 {
			t.Errorf("%s: max rel error %g vs tape", c.name, e)
		}
	}

	// And both against finite differences.
	loss := func() float64 {
		return tensor.MatMulBiasAct(a, w, bias, tensor.ActTanh).Sum()
	}
	if e := autograd.MaxRelError(da, autograd.NumericGrad(a, 1e-2, loss)); e > 5e-2 {
		t.Errorf("dA vs numeric: max rel error %g", e)
	}
}

// TestLSTMCellBackwardCrossCheckAutograd composes the LSTM cell on the
// tape from per-gate pre-activation leaves and checks the fused backward
// kernel's dz blocks and dcPrev against reverse-mode gradients.
func TestLSTMCellBackwardCrossCheckAutograd(t *testing.T) {
	rng := tensor.NewRNG(12)
	batch, in, hd := 3, 4, 6
	xt := rng.Uniform(-1, 1, batch, in)
	h := rng.Uniform(-1, 1, batch, hd)
	cPrev := rng.Uniform(-1, 1, batch, hd)
	wx := rng.Uniform(-1, 1, in, 4*hd)
	wh := rng.Uniform(-1, 1, hd, 4*hd)
	bias := rng.Uniform(-1, 1, 4*hd)
	dyt := rng.Uniform(-1, 1, batch, hd)
	dhNext := rng.Uniform(-1, 1, batch, hd)
	dcNext := rng.Uniform(-1, 1, batch, hd)

	gates := tensor.LSTMCellForward(tensor.MatMul(xt, wx), h, cPrev, wh, bias)
	dz, dcPrev := tensor.LSTMCellBackward(dyt, dhNext, dcNext, cPrev, gates)

	// Tape version: leaves are the four pre-activation blocks and cPrev.
	z := tensor.AddRowVector(tensor.Add(tensor.MatMul(xt, wx), tensor.MatMul(h, wh)), bias)
	tp := autograd.NewTape()
	zi := tp.Var(splitCols(z, 0, hd))
	zf := tp.Var(splitCols(z, hd, 2*hd))
	zg := tp.Var(splitCols(z, 2*hd, 3*hd))
	zo := tp.Var(splitCols(z, 3*hd, 4*hd))
	cp := tp.Var(cPrev)
	i, f := tp.Sigmoid(zi), tp.Sigmoid(zf)
	g, o := tp.Tanh(zg), tp.Sigmoid(zo)
	cNew := tp.Add(tp.Mul(f, cp), tp.Mul(i, g))
	hNew := tp.Mul(o, tp.Tanh(cNew))
	// Upstream gradients enter as constants: dh on h', dcNext on c'.
	total := tp.Add(
		tp.Mul(hNew, tp.Const(tensor.Add(dyt, dhNext))),
		tp.Mul(cNew, tp.Const(dcNext)))
	tp.Backward(tp.Sum(total))

	for _, c := range []struct {
		name      string
		got, want *tensor.Tensor
	}{
		{"dz[i]", splitCols(dz, 0, hd), zi.Grad},
		{"dz[f]", splitCols(dz, hd, 2*hd), zf.Grad},
		{"dz[g]", splitCols(dz, 2*hd, 3*hd), zg.Grad},
		{"dz[o]", splitCols(dz, 3*hd, 4*hd), zo.Grad},
		{"dcPrev", dcPrev, cp.Grad},
	} {
		if e := autograd.MaxRelError(c.got, c.want); e > 1e-4 {
			t.Errorf("%s: max rel error %g vs tape", c.name, e)
		}
	}
}
