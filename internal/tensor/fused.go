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

// LSTMGates is the per-step activation bundle of the LSTM cell. Z holds
// the four gate activations packed per row as [input|forget|cell|output],
// (batch, 4·hidden) — the layout of the pre-activation they are computed
// over in place; C, TanhC and H are (batch, hidden). LSTMCellForward's
// gates are arena-backed and owned by the caller (the interpreter stashes
// them for backward and releases them there); a lowered LSTM points them
// at rows of its slots instead.
type LSTMGates struct {
	Z     *Tensor // gate activations [i|f|g|o]
	C     *Tensor // new cell state
	TanhC *Tensor // tanh of the new cell state
	H     *Tensor // new hidden state
}

// Release returns every gate buffer to the arena.
func (g *LSTMGates) Release() {
	g.Z.Release()
	g.C.Release()
	g.TanhC.Release()
	g.H.Release()
}

// LSTMCellForward runs one LSTM time step into freshly borrowed gates:
// zh = h@wh with the standard matmul kernel, then LSTMCellForwardInto.
// zx is the step's rows of the input projection x@wx (batch,4h) — it does
// not depend on the recurrence, so the caller computes it for the whole
// sequence in one matmul. h and c are (batch,hidden), wh (hidden,4h).
func LSTMCellForward(zx, h, c, wh, bias *Tensor) LSTMGates {
	batch, hidden := h.shape[0], h.shape[1]
	if len(wh.shape) != 2 || wh.shape[0] != hidden || wh.shape[1] != 4*hidden {
		panic(fmt.Sprintf("tensor: LSTMCellForward h=%v wh=%v", h.shape, wh.shape))
	}
	zh := MatMul(h, wh)
	g := LSTMGates{
		Z: borrowRaw(batch, 4*hidden), C: borrowRaw(batch, hidden),
		TanhC: borrowRaw(batch, hidden), H: borrowRaw(batch, hidden),
	}
	LSTMCellForwardInto(g, zx, zh, c, bias)
	zh.Release()
	return g
}

// LSTMCellForwardInto runs one LSTM time step into g's storage, given the
// step's input projection zx and recurrent product zh (both (batch,4h)),
// the previous cell state c and the bias (4h):
//
//	z = (zx + zh) + bias             (two vector adds, in that order)
//	i,f,o = sigmoid(z…), g = tanh(z…) (in place in g.Z)
//	c' = f*c + i*g;  h' = o * tanh(c')
//
// g.Z may be zx itself. Every element gets the float expressions of the
// composed MatMul/Add/AddRowVector/splitCols/Sigmoid/Tanh/Mul chain in the
// same order, so the cell is bit-identical to it.
func LSTMCellForwardInto(g LSTMGates, zx, zh, c, bias *Tensor) {
	batch, hidden := c.shape[0], c.shape[1]
	if !sameDims(zx, batch, 4*hidden) || !sameDims(zh, batch, 4*hidden) || !sameDims(g.Z, batch, 4*hidden) ||
		!sameDims(g.C, batch, hidden) || !sameDims(g.TanhC, batch, hidden) || !sameDims(g.H, batch, hidden) ||
		len(bias.shape) != 1 || bias.shape[0] != 4*hidden {
		panic(fmt.Sprintf("tensor: LSTMCellForwardInto shapes zx=%v zh=%v c=%v bias=%v z=%v c'=%v tanh=%v h'=%v",
			zx.shape, zh.shape, c.shape, bias.shape, g.Z.shape, g.C.shape, g.TanhC.shape, g.H.shape))
	}
	v := lstmOperands{g: g, zx: zx, zh: zh, c: c, bias: bias}
	parallelFor(batch, batch*4*hidden, 1, v, lstmCellForwardRows)
}

// lstmOperands carries the LSTM cell kernels' tensors to their row
// functions as a value (see operands).
type lstmOperands struct {
	g                              LSTMGates
	zx, zh, c, bias                *Tensor
	dz, dcPrev, dy, dhNext, dcNext *Tensor
}

func lstmCellForwardRows(v lstmOperands, lo, hi int) {
	h := v.c.shape[1]
	z := v.g.Z.data[lo*4*h : hi*4*h]
	vecAddTo(z, v.zx.data[lo*4*h:hi*4*h], v.zh.data[lo*4*h:hi*4*h])
	for r := lo; r < hi; r++ {
		zr := z[(r-lo)*4*h : (r-lo+1)*4*h]
		vecAdd(zr, v.bias.data)
		actInto(ActSigmoid, zr[:2*h], zr[:2*h])
		actInto(ActTanh, zr[2*h:3*h], zr[2*h:3*h])
		actInto(ActSigmoid, zr[3*h:], zr[3*h:])
		iv, fv, gv := zr[:h], zr[h:2*h], zr[2*h:3*h]
		cPrev, cv := v.c.data[r*h:(r+1)*h], v.g.C.data[r*h:(r+1)*h]
		for j := range cv {
			cv[j] = fv[j]*cPrev[j] + iv[j]*gv[j]
		}
	}
	tc, cv := v.g.TanhC.data[lo*h:hi*h], v.g.C.data[lo*h:hi*h]
	actInto(ActTanh, tc, cv)
	for r := lo; r < hi; r++ {
		ov, tr, hr := z[(r-lo)*4*h+3*h:(r-lo+1)*4*h], tc[(r-lo)*h:(r-lo+1)*h], v.g.H.data[r*h:(r+1)*h]
		for j := range hr {
			hr[j] = ov[j] * tr[j]
		}
	}
}

// LSTMCellBackward computes the packed-gate pre-activation gradient dz
// (batch, 4*hidden) and the cell-state gradient dcPrev (batch, hidden)
// flowing to the previous time step into freshly borrowed tensors the
// caller owns (LSTMCellBackwardInto).
func LSTMCellBackward(dyt, dhNext, dcNext, cPrev *Tensor, g LSTMGates) (dz, dcPrev *Tensor) {
	batch, hidden := g.C.shape[0], g.C.shape[1]
	dz = borrowRaw(batch, 4*hidden)
	dcPrev = borrowRaw(batch, hidden)
	LSTMCellBackwardInto(dz, dcPrev, dyt, dhNext, dcNext, cPrev, g)
	return dz, dcPrev
}

// LSTMCellBackwardInto computes, in one pass per row (lstmCellBwd), the
// cell backward into dz and dcPrev:
//
//	dh = dyt + dhNext
//	do = dh * tanhC;      dc = dcNext + (dh*o) * (1 - tanhC²)
//	di = dc*g; df = dc*cPrev; dg = dc*i; dcPrev = dc*f
//	dz = [di*i*(1-i) | df*f*(1-f) | dg*(1-g²) | do*o*(1-o)]
//
// Each expression is evaluated in exactly the order shown, matching the
// chain of elementwise ops in the composed backward, so gradients are
// bit-identical. The caller finishes the step with matmuls over dz
// (weight-gradient accumulates, dx, dhPrev). dcPrev must not alias dcNext.
func LSTMCellBackwardInto(dz, dcPrev, dyt, dhNext, dcNext, cPrev *Tensor, g LSTMGates) {
	batch, hidden := g.C.shape[0], g.C.shape[1]
	for _, t := range []*Tensor{dyt, dhNext, dcNext, cPrev, dcPrev, g.TanhC} {
		if !sameDims(t, batch, hidden) {
			panic(fmt.Sprintf("tensor: LSTMCellBackward carry shape %v, want [%d %d]", t.shape, batch, hidden))
		}
	}
	if !sameDims(dz, batch, 4*hidden) || !sameDims(g.Z, batch, 4*hidden) {
		panic(fmt.Sprintf("tensor: LSTMCellBackward dz %v, gates %v, want [%d %d]", dz.shape, g.Z.shape, batch, 4*hidden))
	}
	v := lstmOperands{g: g, c: cPrev, dz: dz, dcPrev: dcPrev, dy: dyt, dhNext: dhNext, dcNext: dcNext}
	parallelFor(batch, batch*4*hidden, 1, v, lstmCellBackwardRows)
}

func lstmCellBackwardRows(v lstmOperands, lo, hi int) {
	h := v.c.shape[1]
	for r := lo; r < hi; r++ {
		a, b := r*h, (r+1)*h
		lstmCellBwd(v.dz.data[4*a:4*b], v.g.Z.data[4*a:4*b], h, v.g.TanhC.data[a:b],
			v.c.data[a:b], v.dy.data[a:b], v.dhNext.data[a:b], v.dcNext.data[a:b], v.dcPrev.data[a:b])
	}
}

// sameDims reports whether t is the 2-D tensor (rows, cols).
func sameDims(t *Tensor, rows, cols int) bool {
	return len(t.shape) == 2 && t.shape[0] == rows && t.shape[1] == cols
}
