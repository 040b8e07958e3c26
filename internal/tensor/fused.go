package tensor

import "fmt"

// Fused kernels collapse the dominant op chains of the training hot path
// into single passes over memory:
//
//   - MatMulBiasAct: matmul + bias broadcast + activation (the Linear
//     forward) — one output write instead of three tensors.
//   - MatMulTransAAcc / SumRowsAcc (matmul.go, reduce.go): the Linear
//     backward weight/bias accumulates without intermediate products.
//   - LSTMCellForward / LSTMCellBackward: the four-gate LSTM cell in one
//     pass over the gate matrix instead of a dozen elementwise kernels.
//
// Every fused kernel evaluates the exact same float expressions, in the
// same order, as the composed ops it replaces — the autograd cross-check
// and fused-equality tests in fused_test.go enforce this — so fusing
// never changes training losses.

// Act selects the activation applied by fused kernels. Tanh and sigmoid
// run the kernels of TanhInto and SigmoidInto, which Tanh/Sigmoid in
// ops.go use too, so a fused kernel is bit-identical to the composed
// equivalent.
type Act uint8

const (
	// ActIdentity applies no activation.
	ActIdentity Act = iota
	// ActReLU applies max(x, 0).
	ActReLU
	// ActTanh applies Tanh32.
	ActTanh
	// ActSigmoid applies Sigmoid32.
	ActSigmoid

	// actGELU and actGELUDeriv select Gelu32 and GeluDeriv32 in the
	// activation kernels (actInto); no fused kernel applies them.
	actGELU
	actGELUDeriv
)

// MatMulBiasAct returns act(a @ b + bias) in one pass: (m,k) x (k,n) with
// bias (n) broadcast to every row; bias may be nil to skip the add. This
// is the fused Linear/projection forward. Bit-identical to
// Tanh(AddRowVector(MatMul(a, b), bias)) and friends.
func MatMulBiasAct(a, b, bias *Tensor, act Act) *Tensor {
	checkMatMulBiasAct(a, b, bias)
	out := Borrow(a.shape[0], b.shape[1])
	matMulBiasActInto(out, a, b, bias, act)
	return out
}

// MatMulBiasActInto computes dst = act(a @ b + bias), fully overwriting
// dst — the zero-allocation variant the compiled execution path writes
// into pre-planned slot storage. dst is cleared first so the in-place
// accumulation is bit-identical to MatMulBiasAct's zeroed arena borrow.
func MatMulBiasActInto(dst, a, b, bias *Tensor, act Act) {
	checkMatMulBiasAct(a, b, bias)
	if len(dst.shape) != 2 || dst.shape[0] != a.shape[0] || dst.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulBiasActInto dst %v for %v x %v", dst.shape, a.shape, b.shape))
	}
	dst.Zero()
	matMulBiasActInto(dst, a, b, bias, act)
}

func checkMatMulBiasAct(a, b, bias *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulBiasAct shapes %v x %v", a.shape, b.shape))
	}
	if bias != nil && (len(bias.shape) != 1 || bias.shape[0] != b.shape[1]) {
		panic(fmt.Sprintf("tensor: MatMulBiasAct bias %v for output width %d", bias.shape, b.shape[1]))
	}
}

// matMulBiasActInto accumulates into out, which must be zeroed.
func matMulBiasActInto(out, a, b, bias *Tensor, act Act) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	g := operands{out: out, a: a, b: b, bias: bias, act: act}
	parallelGEMM(m, k, n, matmulRowTile, g, func(g operands, lo, hi int) {
		k, n := g.a.shape[1], g.b.shape[1]
		gemmAccRows(g.out.data, g.a.data, k, 1, g.b.data, k, n, lo, hi)
		if g.bias != nil {
			for i := lo; i < hi; i++ {
				vecAdd(g.out.data[i*n:(i+1)*n], g.bias.data)
			}
		}
		rows := g.out.data[lo*n : hi*n]
		switch g.act {
		case ActIdentity:
		case ActReLU:
			for j, v := range rows {
				if v < 0 {
					rows[j] = 0
				}
			}
		case ActTanh, ActSigmoid:
			actInto(g.act, rows, rows)
		}
	})
}

// LSTMGates is the per-step activation bundle produced by LSTMCellForward.
// All tensors are (batch, hidden), arena-backed, and owned by the caller
// (the LSTM layer stashes them for backward and releases them there).
type LSTMGates struct {
	I, F, G, O *Tensor // gate activations
	C          *Tensor // new cell state
	TanhC      *Tensor // tanh of the new cell state
	H          *Tensor // new hidden state
}

// Release returns every gate buffer to the arena.
func (g *LSTMGates) Release() {
	g.I.Release()
	g.F.Release()
	g.G.Release()
	g.O.Release()
	g.C.Release()
	g.TanhC.Release()
	g.H.Release()
}

// LSTMCellForward runs one LSTM time step in a single fused pass:
//
//	z = zx + h@wh + bias               (packed gates [input|forget|cell|output])
//	i,f,o = sigmoid(z…), g = tanh(z…)
//	c' = f*c + i*g;  h' = o * tanh(c')
//
// zx is the step's rows of the input projection x@wx (batch,4h) — it does
// not depend on the recurrence, so the caller computes it for the whole
// sequence in one matmul. h and c are (batch,hidden), wh (hidden,4h), bias
// (4h). The recurrent pre-activation uses the standard matmul kernel (same
// accumulation order as the composed version: (xt@wx + h@wh) + bias
// elementwise) and lands in the gate tensors, which the activation kernels
// then overwrite in place, one slice per gate — bit-identical to the chain
// of MatMul/Add/AddRowVector/splitCols/Sigmoid/Tanh/Mul ops it replaces.
func LSTMCellForward(zx, h, c, wh, bias *Tensor) LSTMGates {
	batch, hidden := h.shape[0], h.shape[1]
	if len(zx.shape) != 2 || zx.shape[0] != batch || zx.shape[1] != 4*hidden ||
		len(c.shape) != 2 || c.shape[0] != batch || c.shape[1] != hidden ||
		wh.shape[0] != hidden || wh.shape[1] != 4*hidden ||
		len(bias.shape) != 1 || bias.shape[0] != 4*hidden {
		panic(fmt.Sprintf("tensor: LSTMCellForward shapes zx=%v h=%v c=%v wh=%v bias=%v",
			zx.shape, h.shape, c.shape, wh.shape, bias.shape))
	}
	zh := MatMul(h, wh)
	g := LSTMGates{
		I: borrowRaw(batch, hidden), F: borrowRaw(batch, hidden),
		G: borrowRaw(batch, hidden), O: borrowRaw(batch, hidden),
		C: borrowRaw(batch, hidden), TanhC: borrowRaw(batch, hidden),
		H: borrowRaw(batch, hidden),
	}
	ParallelForCost(batch, 4*hidden, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			zxr := zx.data[r*4*hidden : (r+1)*4*hidden]
			zhr := zh.data[r*4*hidden : (r+1)*4*hidden]
			ir, fr := g.I.data[r*hidden:(r+1)*hidden], g.F.data[r*hidden:(r+1)*hidden]
			gr, or := g.G.data[r*hidden:(r+1)*hidden], g.O.data[r*hidden:(r+1)*hidden]
			for j := 0; j < hidden; j++ {
				// Same order as the composed path: (zx+zh) elementwise,
				// then the broadcast bias add.
				ir[j] = (zxr[j] + zhr[j]) + bias.data[j]
				fr[j] = (zxr[hidden+j] + zhr[hidden+j]) + bias.data[hidden+j]
				gr[j] = (zxr[2*hidden+j] + zhr[2*hidden+j]) + bias.data[2*hidden+j]
				or[j] = (zxr[3*hidden+j] + zhr[3*hidden+j]) + bias.data[3*hidden+j]
			}
		}
		// The chunk's rows are contiguous in every gate: one activation
		// pass per gate, then the cell update, tanh(c) and h.
		span := func(t *Tensor) []float32 { return t.data[lo*hidden : hi*hidden] }
		iv, fv, gv, ov := span(g.I), span(g.F), span(g.G), span(g.O)
		actInto(ActSigmoid, iv, iv)
		actInto(ActSigmoid, fv, fv)
		actInto(ActTanh, gv, gv)
		actInto(ActSigmoid, ov, ov)
		cPrev, cv := span(c), span(g.C)
		for j := range cv {
			cv[j] = fv[j]*cPrev[j] + iv[j]*gv[j]
		}
		tc, hv := span(g.TanhC), span(g.H)
		actInto(ActTanh, tc, cv)
		for j := range hv {
			hv[j] = ov[j] * tc[j]
		}
	})
	zh.Release()
	return g
}

// LSTMCellBackward computes, in one fused pass, the packed-gate
// pre-activation gradient dz (batch, 4*hidden) and the cell-state
// gradient dcPrev (batch, hidden) flowing to the previous time step:
//
//	dh = dyt + dhNext
//	do = dh * tanhC;      dc = dcNext + (dh*o) * (1 - tanhC²)
//	di = dc*g; df = dc*cPrev; dg = dc*i; dcPrev = dc*f
//	dz = [di*i*(1-i) | df*f*(1-f) | dg*(1-g²) | do*o*(1-o)]
//
// Each expression is evaluated in exactly the order shown, matching the
// chain of elementwise ops in the composed backward, so gradients are
// bit-identical. The caller finishes the step with matmuls over dz
// (weight-gradient accumulates, dx, dhPrev). Both outputs are
// arena-backed and owned by the caller.
func LSTMCellBackward(dyt, dhNext, dcNext, cPrev *Tensor, g LSTMGates) (dz, dcPrev *Tensor) {
	batch, hidden := g.I.shape[0], g.I.shape[1]
	for _, t := range []*Tensor{dyt, dhNext, dcNext, cPrev} {
		if len(t.shape) != 2 || t.shape[0] != batch || t.shape[1] != hidden {
			panic(fmt.Sprintf("tensor: LSTMCellBackward carry shape %v, want [%d %d]", t.shape, batch, hidden))
		}
	}
	dz = borrowRaw(batch, 4*hidden)
	dcPrev = borrowRaw(batch, hidden)
	ParallelForCost(batch, 4*hidden, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r * hidden
			dzr := dz.data[r*4*hidden : (r+1)*4*hidden]
			for j := 0; j < hidden; j++ {
				iv := g.I.data[base+j]
				fv := g.F.data[base+j]
				gv := g.G.data[base+j]
				ov := g.O.data[base+j]
				tc := g.TanhC.data[base+j]
				dh := dyt.data[base+j] + dhNext.data[base+j]
				do := dh * tc
				dc := dcNext.data[base+j] + (dh*ov)*(1-tc*tc)
				dzr[j] = (dc * gv) * (iv * (1 - iv))
				dzr[hidden+j] = (dc * cPrev.data[base+j]) * (fv * (1 - fv))
				dzr[2*hidden+j] = (dc * iv) * (1 - gv*gv)
				dzr[3*hidden+j] = do * (ov * (1 - ov))
				dcPrev.data[base+j] = dc * fv
			}
		}
	})
	return dz, dcPrev
}
