package nn

import (
	"fmt"
	"math"

	"avgpipe/internal/compiled"
	"avgpipe/internal/tensor"
)

// Compile lowers self-attention onto slots, bit for bit with Forward and
// Backward. The input is copied once into sequence-major order (row
// b·SeqLen + t), so each sequence is one contiguous block of rows, as the
// interpreter's per-sequence copies are.
//
//   - Forward: the Q/K/V projections are three all-rows GEMMs — an output
//     element depends only on its row and on k (DESIGN §9), so they equal
//     the per-sequence products. Per (sequence, head) the scores, the
//     scale, the softmax (stashed in a slot) and P·V run on per-Env
//     scratch. Wo is one all-rows GEMM, copied back to time-major.
//   - Grad-input: dConcat = dy·Woᵀ over all rows; per (sequence, head) dP,
//     the softmax backward and dq/dk/dv; then dx = dq·Wqᵀ + dk·Wkᵀ + dv·Wvᵀ,
//     summed in that order.
//   - Grad-weight: dWq, dWk, dWv and dWo accumulate one sequence at a
//     time, b ascending — the interpreter's "shard, then AddGrad in
//     batch order". One GEMM over all rows would regroup the sum over the
//     batch.
func (a *MultiHeadSelfAttention) Compile(b *compiled.Builder) {
	x := b.Cur()
	shape := b.ShapeOf(x)
	seqLen, heads, dh := a.SeqLen, a.Heads, a.Dim/a.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	rows := rowsOf(shape)
	probsShape := func(in []int) []int { return []int{rows(in) * heads, seqLen} }
	name := fmt.Sprintf("attn[%d/%dh]", a.Dim, heads)

	w := b.Aux(func(in []int) any {
		if rows(in)%seqLen != 0 {
			panic(fmt.Sprintf("nn: attention rows %d not divisible by seqLen %d", rows(in), seqLen))
		}
		return newAttnEnv(seqLen, dh)
	})
	work := func(e *compiled.Env) *attnEnv { return e.Aux(w).(*attnEnv) }

	xs, q, k, v := b.Slot(shape), b.Slot(shape), b.Slot(shape), b.Slot(shape)
	probs, cat, ys, y := b.Slot(probsShape), b.Slot(shape), b.Slot(shape), b.Slot(shape)
	b.EmitFwd(name+".qkv", []compiled.Reg{x}, []compiled.Reg{xs, q, k, v}, func(e *compiled.Env) {
		seqMajor(e.Reg(xs), e.Reg(x), seqLen, false)
		tensor.MatMulBiasActInto(e.Reg(q), e.Reg(xs), a.Wq.W, nil, tensor.ActIdentity)
		tensor.MatMulBiasActInto(e.Reg(k), e.Reg(xs), a.Wk.W, nil, tensor.ActIdentity)
		tensor.MatMulBiasActInto(e.Reg(v), e.Reg(xs), a.Wv.W, nil, tensor.ActIdentity)
	})
	b.EmitFwd(name+".heads", []compiled.Reg{q, k, v}, []compiled.Reg{probs, cat}, func(e *compiled.Env) {
		s := work(e)
		qb, kb, vb, cb := s.seqs(e, q), s.seqs(e, k), s.seqs(e, v), s.seqs(e, cat)
		pb := s.views.blocks(e, probs, len(qb)*heads)
		for i := range qb {
			for h := 0; h < heads; h++ {
				splitColsInto(s.qh, qb[i], h*dh)
				splitColsInto(s.kh, kb[i], h*dh)
				splitColsInto(s.vh, vb[i], h*dh)
				p := pb[i*heads+h]
				tensor.MatMulTransBInto(s.s, s.qh, s.kh)
				s.s.ScaleInPlace(scale)
				tensor.SoftmaxRowsInto(p, s.s)
				tensor.MatMulBiasActInto(s.oh, p, s.vh, nil, tensor.ActIdentity)
				setCols(cb[i], s.oh, h*dh)
			}
		}
	})
	b.EmitFwd(name+".out", []compiled.Reg{cat}, []compiled.Reg{ys, y}, func(e *compiled.Env) {
		tensor.MatMulBiasActInto(e.Reg(ys), e.Reg(cat), a.Wo.W, nil, tensor.ActIdentity)
		seqMajor(e.Reg(y), e.Reg(ys), seqLen, true)
	})
	b.SetCur(y)

	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		dys, dcat := b.Slot(shape), b.Slot(shape)
		dq, dk, dv := b.Slot(shape), b.Slot(shape), b.Slot(shape)
		dxs, tmp, dx := b.Slot(shape), b.Slot(shape), b.Slot(shape)
		b.EmitBwdIn(name+".dcat", []compiled.Reg{dy}, []compiled.Reg{dys, dcat}, func(e *compiled.Env) {
			seqMajor(e.Reg(dys), e.Reg(dy), seqLen, false)
			tensor.MatMulTransBInto(e.Reg(dcat), e.Reg(dys), a.Wo.W)
		})
		b.EmitBwdIn(name+".dheads", []compiled.Reg{dcat, probs, q, k, v}, []compiled.Reg{dq, dk, dv}, func(e *compiled.Env) {
			s := work(e)
			qb, kb, vb, db := s.seqs(e, q), s.seqs(e, k), s.seqs(e, v), s.seqs(e, dcat)
			dqb, dkb, dvb := s.seqs(e, dq), s.seqs(e, dk), s.seqs(e, dv)
			pb := s.views.blocks(e, probs, len(qb)*heads)
			for i := range qb {
				for h := 0; h < heads; h++ {
					p := pb[i*heads+h]
					splitColsInto(s.do, db[i], h*dh)
					splitColsInto(s.vh, vb[i], h*dh)
					// dP = dOh·Vhᵀ; dVh = Pᵀ·dOh.
					tensor.MatMulTransBInto(s.s, s.do, s.vh)
					tensor.MatMulTransAInto(s.oh, p, s.do)
					setCols(dvb[i], s.oh, h*dh)
					softmaxRowsGradInPlace(s.s, p)
					s.s.ScaleInPlace(scale)
					splitColsInto(s.qh, qb[i], h*dh)
					splitColsInto(s.kh, kb[i], h*dh)
					tensor.MatMulBiasActInto(s.oh, s.s, s.kh, nil, tensor.ActIdentity)
					setCols(dqb[i], s.oh, h*dh)
					tensor.MatMulTransAInto(s.oh, s.s, s.qh)
					setCols(dkb[i], s.oh, h*dh)
				}
			}
		})
		b.EmitBwdIn(name+".dx", []compiled.Reg{dq, dk, dv}, []compiled.Reg{dxs, tmp, dx}, func(e *compiled.Env) {
			sum, t := e.Reg(dxs), e.Reg(tmp)
			tensor.MatMulTransBInto(sum, e.Reg(dq), a.Wq.W)
			tensor.MatMulTransBInto(t, e.Reg(dk), a.Wk.W)
			sum.AddInPlace(t)
			tensor.MatMulTransBInto(t, e.Reg(dv), a.Wv.W)
			sum.AddInPlace(t)
			seqMajor(e.Reg(dx), sum, seqLen, true)
		})
		b.EmitBwdW(name+".dw", []compiled.Reg{xs, cat, dys, dq, dk, dv}, nil, func(e *compiled.Env) {
			s := work(e)
			xb, cb, dyb := s.seqs(e, xs), s.seqs(e, cat), s.seqs(e, dys)
			dqb, dkb, dvb := s.seqs(e, dq), s.seqs(e, dk), s.seqs(e, dv)
			for i := range xb {
				tensor.MatMulTransAAcc(a.Wq.G, xb[i], dqb[i])
				tensor.MatMulTransAAcc(a.Wk.G, xb[i], dkb[i])
				tensor.MatMulTransAAcc(a.Wv.G, xb[i], dvb[i])
				tensor.MatMulTransAAcc(a.Wo.G, cb[i], dyb[i])
			}
		})
		return dx
	})
}

// attnEnv is one Env's working set for the attention lowering: scratch
// for one (sequence, head) at a time, and row views of the slot registers
// the ops address block by block.
type attnEnv struct {
	seqLen             int
	qh, kh, vh, oh, do *tensor.Tensor // (seqLen, dh) head columns
	s                  *tensor.Tensor // (seqLen, seqLen) scores, then dP and dS
	views              viewCache
}

func newAttnEnv(seqLen, dh int) *attnEnv {
	w := &attnEnv{seqLen: seqLen, s: tensor.New(seqLen, seqLen), views: viewCache{}}
	for _, h := range []**tensor.Tensor{&w.qh, &w.kh, &w.vh, &w.oh, &w.do} {
		*h = tensor.New(seqLen, dh)
	}
	return w
}

// seqs returns one row view per sequence of a sequence-major register.
func (w *attnEnv) seqs(e *compiled.Env, r compiled.Reg) []*tensor.Tensor {
	return w.views.blocks(e, r, e.Reg(r).Dim(0)/w.seqLen)
}

// seqMajor copies the time-major rows of src (row t·batch + b) into dst in
// sequence-major order (row b·seqLen + t), or back when inverse is set.
func seqMajor(dst, src *tensor.Tensor, seqLen int, inverse bool) {
	d := src.Dim(1)
	batch := src.Dim(0) / seqLen
	for b := 0; b < batch; b++ {
		for t := 0; t < seqLen; t++ {
			from, to := (t*batch+b)*d, (b*seqLen+t)*d
			if inverse {
				from, to = to, from
			}
			copy(dst.Data()[to:to+d], src.Data()[from:from+d])
		}
	}
}

// softmaxRowsGradInPlace turns dP into dS = P ⊙ (dP − rowsum(dP⊙P)), row
// by row, with the interpreter's float64 row sum.
func softmaxRowsGradInPlace(dp, p *tensor.Tensor) {
	n := p.Dim(1)
	for r := 0; r < p.Dim(0); r++ {
		pr := p.Data()[r*n : (r+1)*n]
		dpr := dp.Data()[r*n : (r+1)*n]
		var dot float64
		for j := range pr {
			dot += float64(pr[j]) * float64(dpr[j])
		}
		for j := range pr {
			dpr[j] = pr[j] * (dpr[j] - float32(dot))
		}
	}
}

// Compile lowers the block from its sublayers' own lowerings — attention,
// LayerNorm, FF1 (a plain Linear: GELU's derivative needs the
// pre-activation, so the pair does not fuse), GELU, FF2 — with each
// residual connection a slot add whose backward is the gradient fan-in.
func (t *TransformerEncoderLayer) Compile(b *compiled.Builder) {
	compileResidual(b, "encoder.res1", func() { t.Attn.Compile(b) })
	t.LN1.Compile(b)
	compileResidual(b, "encoder.res2", func() {
		t.FF1.Compile(b)
		t.Act.Compile(b)
		t.FF2.Compile(b)
	})
	t.LN2.Compile(b)
}

// compileResidual lowers y = x + f(x), where body lowers f from the
// cursor. Its backward is the fan-in dx = dy + df: the thunk registered
// after body hands dy to f's backward and keeps it; the thunk registered
// before body runs once f's backward has produced df, and adds the two in
// the interpreter's order.
func compileResidual(b *compiled.Builder, name string, body func()) {
	x := b.Cur()
	var dy compiled.Reg
	b.OnBackward(func(df compiled.Reg) compiled.Reg {
		dx := b.Slot(b.ShapeOf(x))
		b.EmitBwdIn(name+".dx", []compiled.Reg{dy, df}, []compiled.Reg{dx}, func(e *compiled.Env) {
			tensor.AddInto(e.Reg(dx), e.Reg(dy), e.Reg(df))
		})
		return dx
	})
	body()
	fx := b.Cur()
	y := b.Slot(b.ShapeOf(x))
	b.EmitFwd(name, []compiled.Reg{x, fx}, []compiled.Reg{y}, func(e *compiled.Env) {
		tensor.AddInto(e.Reg(y), e.Reg(x), e.Reg(fx))
	})
	b.SetCur(y)
	b.OnBackward(func(d compiled.Reg) compiled.Reg {
		dy = d
		return d
	})
}
