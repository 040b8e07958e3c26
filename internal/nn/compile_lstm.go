package nn

import (
	"fmt"

	"avgpipe/internal/compiled"
	"avgpipe/internal/tensor"
)

// compileLSTM lowers the LSTM onto slots, bit for bit with Forward and
// Backward. Every per-step tensor is a block of rows of an all-steps slot
// (row t·batch + b, the interpreter's time-major layout), addressed
// through row views built once per Env.
//
//   - Forward: zx = x·Wx is one all-rows GEMM into the gates slot z —
//     an output element depends only on its row and on k (DESIGN §9), so
//     it equals the per-step products. Step t then forms zh = h·Wh into a
//     one-step slot and runs the cell, which turns z's rows t into the
//     gate activations in place and writes c, tanh(c) and h into rows t of
//     their slots; h's slot is the layer output, and step t's hPrev and
//     cPrev are rows t−1, or a zeroed slot at t = 0.
//   - DropConnect (training, RecurrentDropP > 0) draws its mask into a
//     slot with BernoulliInto, in the interpreter's element order, and
//     keeps the masked Wh in another; the grad-input op reuses it.
//   - Grad-input: t descending, the cell backward writes dz into rows t of
//     dzAll and dcPrev into a ping-pong slot, then dh = dz·Whᵀ (skipped at
//     t = 0, whose dh the interpreter discards). dx = dzAll·Wxᵀ is one GEMM.
//   - Grad-weight: t descending, Wx.G += x_tᵀ·dz_t, dWh += hPrev_tᵀ·dz_t
//     and B.G += Σrows dz_t, then the mask, then Wh.G += dWh — the
//     interpreter's per-step order. One GEMM over all rows would regroup
//     the sum over the steps.
//
// The input and the incoming gradient are copied into slots first: a
// stage's input and incoming gradient are bound per micro-batch, and the
// per-step views must address storage that stays put.
//
// An inference program never runs backward, so train == false emits the
// forward only (no mask, no input copy) and hands back no gradient.
func compileLSTM(b *compiled.Builder, l *LSTM, train bool) {
	x := b.Cur()
	xShape := b.ShapeOf(x)
	rows := rowsOf(xShape)
	seqLen, hd := l.SeqLen, l.Hidden
	batch := func(in []int) int { return rows(in) / seqLen }
	shape := func(r func([]int) int, cols int) compiled.Shape {
		return func(in []int) []int { return []int{r(in), cols} }
	}
	whShape := func([]int) []int { return []int{hd, 4 * hd} }
	drop := train && l.RecurrentDropP > 0
	name := fmt.Sprintf("lstm[%d→%d]", l.In, hd)

	views := b.Aux(func(in []int) any {
		if rows(in)%seqLen != 0 {
			panic(fmt.Sprintf("nn: LSTM rows %d not divisible by seqLen %d", rows(in), seqLen))
		}
		return viewCache{}
	})
	steps := func(e *compiled.Env, r compiled.Reg) []*tensor.Tensor {
		return e.Aux(views).(viewCache).blocks(e, r, seqLen)
	}

	z, cs, tcs, y := b.Slot(shape(rows, 4*hd)), b.Slot(shape(rows, hd)), b.Slot(shape(rows, hd)), b.Slot(shape(rows, hd))
	zh, zero := b.Slot(shape(batch, 4*hd)), b.Slot(shape(batch, hd))
	xs, mask, whm := compiled.NoReg, compiled.NoReg, compiled.NoReg
	writes := []compiled.Reg{z, cs, tcs, y, zh, zero}
	if train {
		xs = b.Slot(xShape)
		writes = append(writes, xs)
	}
	if drop {
		mask, whm = b.Slot(whShape), b.Slot(whShape)
		writes = append(writes, mask, whm)
	}
	// wh is the recurrent weight matrix this micro-batch runs with.
	wh := func(e *compiled.Env) *tensor.Tensor {
		if drop {
			return e.Reg(whm)
		}
		return l.Wh.W
	}
	b.EmitFwd(name, []compiled.Reg{x}, writes, func(e *compiled.Env) {
		if drop {
			m := e.Reg(mask)
			l.rng.BernoulliInto(m, 1-l.RecurrentDropP)
			m.ScaleInPlace(float32(1 / (1 - l.RecurrentDropP)))
			tensor.MulInto(e.Reg(whm), l.Wh.W, m)
		}
		if train {
			e.Reg(xs).CopyFrom(e.Reg(x))
		}
		tensor.MatMulBiasActInto(e.Reg(z), e.Reg(x), l.Wx.W, nil, tensor.ActIdentity)
		h, c := e.Reg(zero), e.Reg(zero)
		h.Zero()
		zv, cv, tv, yv := steps(e, z), steps(e, cs), steps(e, tcs), steps(e, y)
		for t := range seqLen {
			tensor.MatMulBiasActInto(e.Reg(zh), h, wh(e), nil, tensor.ActIdentity)
			tensor.LSTMCellForwardInto(tensor.LSTMGates{Z: zv[t], C: cv[t], TanhC: tv[t], H: yv[t]},
				zv[t], e.Reg(zh), c, l.B.W)
			h, c = yv[t], cv[t]
		}
	})
	b.SetCur(y)

	if !train {
		b.OnBackward(func(compiled.Reg) compiled.Reg { return compiled.NoReg })
		return
	}
	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		dys, dzAll, dx := b.Slot(shape(rows, hd)), b.Slot(shape(rows, 4*hd)), b.Slot(xShape)
		dh, dc0, dc1 := b.Slot(shape(batch, hd)), b.Slot(shape(batch, hd)), b.Slot(shape(batch, hd))
		reads := []compiled.Reg{dy, z, cs, tcs, zero}
		if drop {
			reads = append(reads, whm)
		}
		b.EmitBwdIn(name+".dx", reads, []compiled.Reg{dys, dzAll, dh, dc0, dc1, dx}, func(e *compiled.Env) {
			e.Reg(dys).CopyFrom(e.Reg(dy))
			zv, cv, tv, dyv, dzv := steps(e, z), steps(e, cs), steps(e, tcs), steps(e, dys), steps(e, dzAll)
			dhNext, dcNext, dcPrev := e.Reg(dh), e.Reg(dc0), e.Reg(dc1)
			dhNext.Zero()
			dcNext.Zero()
			for t := seqLen - 1; t >= 0; t-- {
				cPrev := e.Reg(zero)
				if t > 0 {
					cPrev = cv[t-1]
				}
				tensor.LSTMCellBackwardInto(dzv[t], dcPrev, dyv[t], dhNext, dcNext, cPrev,
					tensor.LSTMGates{Z: zv[t], C: cv[t], TanhC: tv[t]})
				if t > 0 {
					tensor.MatMulTransBInto(dhNext, dzv[t], wh(e))
				}
				dcNext, dcPrev = dcPrev, dcNext
			}
			tensor.MatMulTransBInto(e.Reg(dx), e.Reg(dzAll), l.Wx.W)
		})

		dWh := b.Slot(whShape)
		reads = []compiled.Reg{xs, y, zero, dzAll}
		if drop {
			reads = append(reads, mask)
		}
		b.EmitBwdW(name+".dw", reads, []compiled.Reg{dWh}, func(e *compiled.Env) {
			xv, yv, dzv := steps(e, xs), steps(e, y), steps(e, dzAll)
			dw := e.Reg(dWh)
			dw.Zero()
			for t := seqLen - 1; t >= 0; t-- {
				hPrev := e.Reg(zero)
				if t > 0 {
					hPrev = yv[t-1]
				}
				tensor.MatMulTransAAcc(l.Wx.G, xv[t], dzv[t])
				tensor.MatMulTransAAcc(dw, hPrev, dzv[t])
				tensor.SumRowsAcc(l.B.G, dzv[t])
			}
			if drop {
				dw.MulInPlace(e.Reg(mask))
			}
			l.Wh.G.AddInPlace(dw)
		})
		return dx
	})
}

// compileBiLSTM lowers the bidirectional layer from its parts' own
// lowerings: the forward-direction LSTM over x; the backward-direction
// LSTM between two Reverse lowerings; a column concat. Its backward
// splits dy's columns, runs the reversed branch and then the forward
// one, and fans in dx = dxFw + dxBw in the interpreter's order — the
// two-thunk pattern of compileResidual, with a third thunk that switches
// the gradient from one branch to the other.
func compileBiLSTM(b *compiled.Builder, l *BiLSTM, train bool) {
	x := b.Cur()
	xShape := b.ShapeOf(x)
	rows := rowsOf(xShape)
	hd := l.Fwd.Hidden
	half := func(in []int) []int { return []int{rows(in), hd} }

	var dxBw, dFw compiled.Reg
	b.OnBackward(func(dxFw compiled.Reg) compiled.Reg {
		if dxFw == compiled.NoReg {
			return compiled.NoReg
		}
		dx := b.Slot(xShape)
		b.EmitBwdIn("bilstm.dx", []compiled.Reg{dxFw, dxBw}, []compiled.Reg{dx}, func(e *compiled.Env) {
			tensor.AddInto(e.Reg(dx), e.Reg(dxFw), e.Reg(dxBw))
		})
		return dx
	})
	compileLSTM(b, l.Fwd, train)
	yFw := b.Cur()

	b.SetCur(x)
	b.OnBackward(func(d compiled.Reg) compiled.Reg {
		dxBw = d
		return dFw
	})
	rev := &Reverse{SeqLen: l.SeqLen}
	rev.Compile(b)
	compileLSTM(b, l.Bwd, train)
	rev.Compile(b)
	yBw := b.Cur()

	y := b.Slot(func(in []int) []int { return []int{rows(in), 2 * hd} })
	b.EmitFwd("bilstm.concat", []compiled.Reg{yFw, yBw}, []compiled.Reg{y}, func(e *compiled.Env) {
		setCols(e.Reg(y), e.Reg(yFw), 0)
		setCols(e.Reg(y), e.Reg(yBw), hd)
	})
	b.SetCur(y)
	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		dFw = b.Slot(half)
		dBw := b.Slot(half)
		b.EmitBwdIn("bilstm.split", []compiled.Reg{dy}, []compiled.Reg{dFw, dBw}, func(e *compiled.Env) {
			splitColsInto(e.Reg(dFw), e.Reg(dy), 0)
			splitColsInto(e.Reg(dBw), e.Reg(dy), hd)
		})
		return dBw
	})
}

// Compile lowers time reversal as a row-block copy into a slot; its
// backward is the same copy of the gradient (Reverse is its own adjoint).
func (r *Reverse) Compile(b *compiled.Builder) {
	x := b.Cur()
	shape := b.ShapeOf(x)
	y := b.Slot(shape)
	b.EmitFwd("reverse", []compiled.Reg{x}, []compiled.Reg{y}, func(e *compiled.Env) {
		reverseTimeInto(e.Reg(y), e.Reg(x), r.SeqLen)
	})
	b.SetCur(y)
	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		if dy == compiled.NoReg {
			return compiled.NoReg
		}
		dx := b.Slot(shape)
		b.EmitBwdIn("reverse.dx", []compiled.Reg{dy}, []compiled.Reg{dx}, func(e *compiled.Env) {
			reverseTimeInto(e.Reg(dx), e.Reg(dy), r.SeqLen)
		})
		return dx
	})
}
