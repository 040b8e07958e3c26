package nn

import (
	"fmt"

	"avgpipe/internal/compiled"
	"avgpipe/internal/tensor"
)

// Compiler is implemented by modules that can lower themselves into a
// compiled op graph. The lowering must be bit-identical to the module's
// Forward/Backward (the reference interpreter): same kernels, same
// float expressions, same evaluation order per element. Every module of
// this package lowers natively (the LSTMs through compileLSTM and
// compileBiLSTM, which also take the train/eval mode); a stage holding a
// module without a lowering does not compile.
type Compiler interface {
	Compile(b *compiled.Builder)
}

// CompileStage lowers a stage's layer list into a compiled Program.
// Adjacent Linear+activation pairs are fused into a single
// MatMulBiasAct op (the fused forward is bit-identical to the separate
// matmul and activation passes by the tensor package's fused-kernel
// contract). Nested Sequentials are flattened.
func CompileStage(stage *Sequential, opts compiled.Options) (*compiled.Program, error) {
	return compileStage(stage, opts, false)
}

// CompileStageInference lowers a stage for eval-mode forward replay:
// dropout layers compile to identities (no ops, no RNG draws) and LSTMs
// run without DropConnect and stash nothing for a backward — so the
// compiled forward is bit-identical to the interpreter's eval path
// (workload.Evaluate). Training compiles must keep using
// CompileStage; the two modes draw RNG differently and are not
// interchangeable mid-run.
func CompileStageInference(stage *Sequential, opts compiled.Options) (*compiled.Program, error) {
	return compileStage(stage, opts, true)
}

func compileStage(stage *Sequential, opts compiled.Options, inference bool) (*compiled.Program, error) {
	b := compiled.NewBuilder()
	compileLayers(b, flattenLayers(stage.Layers), inference)
	return b.Finish(opts)
}

func flattenLayers(layers []Module) []Module {
	var out []Module
	for _, l := range layers {
		if s, ok := l.(*Sequential); ok {
			out = append(out, flattenLayers(s.Layers)...)
			continue
		}
		out = append(out, l)
	}
	return out
}

func compileLayers(b *compiled.Builder, layers []Module, inference bool) {
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *Dropout:
			// Eval mode: dropout is an identity, same as the interpreter's
			// train=false path — and crucially it draws no RNG.
			if inference {
				b.OnBackward(func(dy compiled.Reg) compiled.Reg { return dy })
				continue
			}
		case *Linear:
			if i+1 < len(layers) {
				if act, fuse := fusedActOf(layers[i+1]); fuse {
					compileLinearAct(b, l, act)
					i++
					continue
				}
			}
		case *LSTM:
			compileLSTM(b, l, !inference)
			continue
		case *BiLSTM:
			compileBiLSTM(b, l, !inference)
			continue
		}
		c, ok := layers[i].(Compiler)
		if !ok {
			b.Errorf("nn: %T has no lowering", layers[i])
			return
		}
		c.Compile(b)
	}
}

// fusedActOf reports whether m is an activation the fused
// MatMulBiasAct kernel covers.
func fusedActOf(m Module) (tensor.Act, bool) {
	switch m.(type) {
	case *ReLU:
		return tensor.ActReLU, true
	case *Tanh:
		return tensor.ActTanh, true
	case *Sigmoid:
		return tensor.ActSigmoid, true
	}
	return tensor.ActIdentity, false
}

// rowsOf composes a shape function selecting the leading dimension.
func rowsOf(s compiled.Shape) func(in []int) int {
	return func(in []int) int { return s(in)[0] }
}

// sizeOf composes a shape function computing the element count.
func sizeOf(s compiled.Shape) func(in []int) int {
	return func(in []int) int {
		n := 1
		for _, d := range s(in) {
			n *= d
		}
		return n
	}
}

// viewCache is one Env's row views of slot registers: a slot register's
// tensor is the same for the Env's whole life, so each view list is built
// on first use and the steady-state replay allocates nothing.
type viewCache map[compiled.Reg][]*tensor.Tensor

// blocks returns register r's rows split into n equal views.
func (v viewCache) blocks(e *compiled.Env, r compiled.Reg, n int) []*tensor.Tensor {
	if vs, ok := v[r]; ok {
		return vs
	}
	t := e.Reg(r)
	rows := t.Dim(0) / n
	vs := make([]*tensor.Tensor, n)
	for i := range vs {
		vs[i] = t.SliceRows(i*rows, (i+1)*rows)
	}
	v[r] = vs
	return vs
}

// Compile lowers the dense layer (identity activation).
func (l *Linear) Compile(b *compiled.Builder) { compileLinearAct(b, l, tensor.ActIdentity) }

// compileLinearAct lowers y = act(x@W + b). The grad-input half first
// recovers the pre-activation gradient dpre from the stashed
// post-activation y (for ReLU, y>0 iff the pre-activation is >0, so
// gating on y is bit-identical to the interpreter's gate on x), then
// computes dx; the grad-weight half accumulates into W.G/B.G with the
// interpreter's accumulate kernels.
func compileLinearAct(b *compiled.Builder, l *Linear, act tensor.Act) {
	x := b.Cur()
	xRows := rowsOf(b.ShapeOf(x))
	y := b.Slot(func(in []int) []int { return []int{xRows(in), l.Out} })
	name := fmt.Sprintf("linear[%dx%d]", l.In, l.Out)
	if act != tensor.ActIdentity {
		name = fmt.Sprintf("%s+act%d", name, act)
	}
	b.EmitFwd(name, []compiled.Reg{x}, []compiled.Reg{y}, func(e *compiled.Env) {
		tensor.MatMulBiasActInto(e.Reg(y), e.Reg(x), l.W.W, l.B.W, act)
	})
	b.SetCur(y)

	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		dpre := dy
		if act != tensor.ActIdentity {
			dpre = b.Slot(func(in []int) []int { return []int{xRows(in), l.Out} })
			emitActGrad(b, name+".dpre", act, y, dy, dpre)
		}
		dx := b.Slot(b.ShapeOf(x))
		b.EmitBwdIn(name+".dx", []compiled.Reg{dpre}, []compiled.Reg{dx}, func(e *compiled.Env) {
			tensor.MatMulTransBInto(e.Reg(dx), e.Reg(dpre), l.W.W)
		})
		b.EmitBwdW(name+".dw", []compiled.Reg{x, dpre}, nil, func(e *compiled.Env) {
			tensor.MatMulTransAAcc(l.W.G, e.Reg(x), e.Reg(dpre))
			tensor.SumRowsAcc(l.B.G, e.Reg(dpre))
		})
		return dx
	})
}

// emitActGrad emits the op recovering dpre = dy ⊙ act'(y) from the
// post-activation. Tanh and Sigmoid run the interpreter's exact
// two-pass form (Apply the derivative, then multiply) through the
// zero-allocation Into variants; ReLU gates with explicit zeros (the
// interpreter writes into a zeroed borrow).
func emitActGrad(b *compiled.Builder, name string, act tensor.Act, y, dy, dpre compiled.Reg) {
	b.EmitBwdIn(name, []compiled.Reg{y, dy}, []compiled.Reg{dpre}, func(e *compiled.Env) {
		yt, dyt, dp := e.Reg(y), e.Reg(dy), e.Reg(dpre)
		switch act {
		case tensor.ActReLU:
			yd, dd, od := yt.Data(), dyt.Data(), dp.Data()
			for i := range yd {
				if yd[i] > 0 {
					od[i] = dd[i]
				} else {
					od[i] = 0
				}
			}
		case tensor.ActTanh:
			tensor.ApplyInto(dp, yt, func(v float32) float32 { return 1 - v*v })
			tensor.MulInto(dp, dyt, dp)
		case tensor.ActSigmoid:
			tensor.ApplyInto(dp, yt, func(v float32) float32 { return v * (1 - v) })
			tensor.MulInto(dp, dyt, dp)
		}
	})
}

// Compile lowers the embedding lookup. The index list is a per-Env aux
// cell (per micro-batch, so compiled stages stay reentrant); there is
// no input gradient (token IDs are discrete), so the thunk returns
// NoReg and the whole backward is a grad-weight op.
func (l *Embedding) Compile(b *compiled.Builder) {
	x := b.Cur()
	xSize := sizeOf(b.ShapeOf(x))
	idxAux := b.Aux(func(in []int) any { return make([]int, xSize(in)) })
	y := b.Slot(func(in []int) []int { return []int{xSize(in), l.Dim} })
	name := fmt.Sprintf("embedding[%dx%d]", l.Vocab, l.Dim)
	b.EmitFwd(name, []compiled.Reg{x}, []compiled.Reg{y}, func(e *compiled.Env) {
		idx := e.Aux(idxAux).([]int)
		for i, v := range e.Reg(x).Data() {
			idx[i] = int(v)
			if idx[i] < 0 || idx[i] >= l.Vocab {
				panic(fmt.Sprintf("nn: embedding token %d out of vocab %d", idx[i], l.Vocab))
			}
		}
		tensor.GatherInto(e.Reg(y), l.Table.W, idx)
	})
	b.SetCur(y)
	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		b.EmitBwdW(name+".dw", []compiled.Reg{dy}, nil, func(e *compiled.Env) {
			l.Table.ScatterAddGrad(e.Aux(idxAux).([]int), e.Reg(dy))
		})
		return compiled.NoReg
	})
}

// compileUnaryAct lowers a standalone elementwise activation: forward
// runs the activation's slice kernel fwd from x into y; backward writes
// the derivative at the stashed tensor (x or y, per the module's stash
// convention) into dx with deriv and multiplies by dy — the interpreter's
// exact two-pass form.
func compileUnaryAct(b *compiled.Builder, name string, stashInput bool,
	fwd func(dst, src []float32), deriv func(dst, src *tensor.Tensor)) {
	x := b.Cur()
	y := b.Slot(b.ShapeOf(x))
	b.EmitFwd(name, []compiled.Reg{x}, []compiled.Reg{y}, func(e *compiled.Env) {
		fwd(e.Reg(y).Data(), e.Reg(x).Data())
	})
	b.SetCur(y)
	stash := y
	if stashInput {
		stash = x
	}
	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		dx := b.Slot(b.ShapeOf(x))
		b.EmitBwdIn(name+".dx", []compiled.Reg{stash, dy}, []compiled.Reg{dx}, func(e *compiled.Env) {
			deriv(e.Reg(dx), e.Reg(stash))
			tensor.MulInto(e.Reg(dx), e.Reg(dy), e.Reg(dx))
		})
		return dx
	})
}

// Compile lowers tanh (derivative from the stashed output).
func (a *Tanh) Compile(b *compiled.Builder) {
	compileUnaryAct(b, "tanh", false, tensor.TanhInto, func(dst, y *tensor.Tensor) {
		tensor.ApplyInto(dst, y, func(v float32) float32 { return 1 - v*v })
	})
}

// Compile lowers the logistic activation (derivative from the output).
func (a *Sigmoid) Compile(b *compiled.Builder) {
	compileUnaryAct(b, "sigmoid", false, tensor.SigmoidInto, func(dst, y *tensor.Tensor) {
		tensor.ApplyInto(dst, y, func(v float32) float32 { return v * (1 - v) })
	})
}

// Compile lowers GELU (derivative from the stashed input).
func (a *GELU) Compile(b *compiled.Builder) {
	compileUnaryAct(b, "gelu", true, tensor.GeluInto, func(dst, x *tensor.Tensor) {
		tensor.GeluDerivInto(dst.Data(), x.Data())
	})
}

// Compile lowers ReLU. The backward gates dy on the stashed input's
// positivity with explicit zeros (bit-identical to the interpreter's
// zeroed borrow).
func (r *ReLU) Compile(b *compiled.Builder) {
	x := b.Cur()
	y := b.Slot(b.ShapeOf(x))
	b.EmitFwd("relu", []compiled.Reg{x}, []compiled.Reg{y}, func(e *compiled.Env) {
		tensor.ApplyInto(e.Reg(y), e.Reg(x), func(v float32) float32 {
			if v > 0 {
				return v
			}
			return 0
		})
	})
	b.SetCur(y)
	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		dx := b.Slot(b.ShapeOf(x))
		b.EmitBwdIn("relu.dx", []compiled.Reg{x, dy}, []compiled.Reg{dx}, func(e *compiled.Env) {
			xd, dd, od := e.Reg(x).Data(), e.Reg(dy).Data(), e.Reg(dx).Data()
			for i := range xd {
				if xd[i] > 0 {
					od[i] = dd[i]
				} else {
					od[i] = 0
				}
			}
		})
		return dx
	})
}

// Compile lowers dropout for training-mode replay. The keep mask lives
// in a per-Env slot — the per-micro-batch stash that makes two in-flight
// micro-batches safe (the interpreter version stashes per-Context; the
// compiled version must not fall back to module fields). The RNG is
// consumed in the exact element order of the interpreter's Bernoulli.
// P <= 0 is a compile-time identity: no ops at all.
func (d *Dropout) Compile(b *compiled.Builder) {
	if d.P <= 0 {
		b.OnBackward(func(dy compiled.Reg) compiled.Reg { return dy })
		return
	}
	x := b.Cur()
	mask := b.Slot(b.ShapeOf(x))
	y := b.Slot(b.ShapeOf(x))
	b.EmitFwd("dropout", []compiled.Reg{x}, []compiled.Reg{y, mask}, func(e *compiled.Env) {
		m := e.Reg(mask)
		d.rng.BernoulliInto(m, 1-d.P)
		m.ScaleInPlace(float32(1 / (1 - d.P)))
		tensor.MulInto(e.Reg(y), e.Reg(x), m)
	})
	b.SetCur(y)
	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		dx := b.Slot(b.ShapeOf(x))
		b.EmitBwdIn("dropout.dx", []compiled.Reg{mask, dy}, []compiled.Reg{dx}, func(e *compiled.Env) {
			tensor.MulInto(e.Reg(dx), e.Reg(dy), e.Reg(mask))
		})
		return dx
	})
}

// Compile lowers layer norm through the helpers shared verbatim with
// the interpreter (layerNormForwardInto / layerNormGradInInto /
// layerNormGradW). x̂ lives in a slot, 1/σ in a per-Env aux cell; the
// grad-weight accumulation is the BwdW op.
func (l *LayerNorm) Compile(b *compiled.Builder) {
	x := b.Cur()
	xRows := rowsOf(b.ShapeOf(x))
	xhat := b.Slot(b.ShapeOf(x))
	y := b.Slot(b.ShapeOf(x))
	invStdAux := b.Aux(func(in []int) any { return make([]float32, xRows(in)) })
	name := fmt.Sprintf("layernorm[%d]", l.Dim)
	b.EmitFwd(name, []compiled.Reg{x}, []compiled.Reg{xhat, y}, func(e *compiled.Env) {
		layerNormForwardInto(e.Reg(x), e.Reg(xhat), e.Reg(y),
			e.Aux(invStdAux).([]float32), l.Gain.W.Data(), l.Bias.W.Data(), l.Eps)
	})
	b.SetCur(y)
	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		dx := b.Slot(b.ShapeOf(x))
		b.EmitBwdIn(name+".dx", []compiled.Reg{dy, xhat}, []compiled.Reg{dx}, func(e *compiled.Env) {
			layerNormGradInInto(e.Reg(dy), e.Reg(xhat), e.Reg(dx),
				e.Aux(invStdAux).([]float32), l.Gain.W.Data())
		})
		b.EmitBwdW(name+".dw", []compiled.Reg{dy, xhat}, nil, func(e *compiled.Env) {
			layerNormGradW(e.Reg(dy), e.Reg(xhat), l.Gain.G.Data(), l.Bias.G.Data())
		})
		return dx
	})
}

// Compile lowers time pooling through the shared meanPool helpers. The
// output slot is cleared before the accumulate (the interpreter writes
// into a fresh zeroed tensor; slots are reused storage).
func (m *MeanPoolTime) Compile(b *compiled.Builder) {
	x := b.Cur()
	xShape := b.ShapeOf(x)
	y := b.Slot(func(in []int) []int {
		s := xShape(in)
		return []int{s[0] / m.SeqLen, s[1]}
	})
	b.EmitFwd("meanpool", []compiled.Reg{x}, []compiled.Reg{y}, func(e *compiled.Env) {
		yt := e.Reg(y)
		yt.Zero()
		meanPoolForwardInto(e.Reg(x), yt, m.SeqLen)
	})
	b.SetCur(y)
	b.OnBackward(func(dy compiled.Reg) compiled.Reg {
		dx := b.Slot(xShape)
		b.EmitBwdIn("meanpool.dx", []compiled.Reg{dy}, []compiled.Reg{dx}, func(e *compiled.Env) {
			meanPoolBackwardInto(e.Reg(dy), e.Reg(dx), m.SeqLen)
		})
		return dx
	})
}
