package compiled

import (
	"fmt"

	"avgpipe/internal/tensor"
)

// Env is the per-micro-batch execution state of a compiled Program.
// Each in-flight micro-batch owns one Env (the stage worker pools and
// reuses them across batches), which is what makes compiled stages
// reentrant: dropout masks, normalization statistics, and recurrent
// stashes live here, never in module fields.
//
// Binding — shape inference, slot planning, and buffer allocation —
// happens once, at construction, against a concrete input shape; the
// per-micro replay then performs zero allocation decisions on slot
// registers.
type Env struct {
	prog    *Program
	inShape []int

	// regs[r] is the current tensor of register r. Slot registers keep
	// their header (a view over slot storage) across micro-batches;
	// extern and borrow-out registers are reset by EndMicro.
	regs []*tensor.Tensor
	aux  []any

	// x and dy record the externally provided tensors for the
	// pointer-identity release guards in EndMicro.
	x, dy *tensor.Tensor
}

// NewEnv binds the program for the given input shape: plans slots,
// allocates slot storage, and creates the per-register tensor headers.
func (p *Program) NewEnv(in []int) *Env {
	e := &Env{
		prog:    p,
		inShape: append([]int(nil), in...),
		regs:    make([]*tensor.Tensor, len(p.regs)),
		aux:     make([]any, len(p.aux)),
	}
	ivs := p.slotIntervals(in)
	slotOf, slotSizes := assignSlots(ivs)
	storage := make([][]float32, len(slotSizes))
	for s, n := range slotSizes {
		storage[s] = make([]float32, n)
	}
	for i, iv := range ivs {
		dims := p.regs[iv.reg].shape(in)
		e.regs[iv.reg] = tensor.FromSlice(storage[slotOf[i]][:iv.size], dims...)
	}
	for i, mk := range p.aux {
		if mk != nil {
			e.aux[i] = mk(in)
		}
	}
	return e
}

// InShape returns the input shape this Env was bound for; the stage
// worker's pool matches Envs to micro-batches by shape.
func (e *Env) InShape() []int { return e.inShape }

// Reg returns the tensor currently held by register r.
func (e *Env) Reg(r Reg) *tensor.Tensor { return e.regs[r] }

// Aux returns auxiliary cell a.
func (e *Env) Aux(a AuxID) any { return e.aux[a] }

// BindInput binds the stage input for this micro-batch. The input is
// owned by the caller; the Env never releases it (an activation shipped
// from upstream is released as that micro-batch's dy/dx chain retires,
// and stage 0's input belongs to the batch).
func (e *Env) BindInput(x *tensor.Tensor) {
	e.x = x
	e.regs[e.prog.inReg] = x
}

func (e *Env) run(ops []Op) {
	for i := range ops {
		ops[i].Fn(e)
	}
}

// Forward replays the forward ops. Boundary outputs (regBorrowOut) are
// borrowed fresh from the arena first, so ownership can pass downstream.
func (e *Env) Forward() {
	p := e.prog
	if p.outReg != NoReg && p.regs[p.outReg].class == regBorrowOut {
		e.regs[p.outReg] = tensor.Borrow(p.regs[p.outReg].shape(e.inShape)...)
	}
	e.run(p.fwd)
}

// Output returns the forward output tensor. When the output register is
// still read by this stage's backward ops but must be shipped to the
// next stage (outCopy), a fresh borrowed copy is returned — the
// receiver owns and releases it while the slot stays intact for the
// backward replay.
func (e *Env) Output() *tensor.Tensor {
	t := e.regs[e.prog.outReg]
	if e.prog.outCopy {
		c := tensor.Borrow(t.Shape()...)
		c.CopyFrom(t)
		return c
	}
	return t
}

// ReleaseOutput releases the forward output if this Env owns it per
// micro-batch (borrow-out). The last stage calls this after the loss
// consumes the logits; slot-backed outputs are kept (they are reused
// storage, mirroring nothing the interpreter would free).
func (e *Env) ReleaseOutput() {
	p := e.prog
	t := e.regs[p.outReg]
	if t == nil || p.regs[p.outReg].class != regBorrowOut {
		return
	}
	if t != e.x {
		t.Release()
	}
	e.regs[p.outReg] = nil
}

// BindGradIn binds the incoming output-gradient for this micro-batch.
func (e *Env) BindGradIn(dy *tensor.Tensor) {
	e.dy = dy
	e.regs[e.prog.dInReg] = dy
}

// BackwardInput replays the grad-input ops (the 2BP half whose result
// unblocks the upstream stage). Emitted dx registers of borrow-out
// class are borrowed fresh first.
func (e *Env) BackwardInput() {
	p := e.prog
	if p.dOutReg != NoReg && p.regs[p.dOutReg].class == regBorrowOut {
		e.regs[p.dOutReg] = tensor.Borrow(p.regs[p.dOutReg].shape(e.inShape)...)
	}
	e.run(p.bwdIn)
}

// GradOut returns the input-gradient tensor (nil when the stage's first
// layer has no differentiable input, e.g. Embedding). With dxCopy set a
// fresh borrowed copy is returned, mirroring Output.
func (e *Env) GradOut() *tensor.Tensor {
	if e.prog.dOutReg == NoReg {
		return nil
	}
	t := e.regs[e.prog.dOutReg]
	if e.prog.dxCopy && t != nil {
		c := tensor.Borrow(t.Shape()...)
		c.CopyFrom(t)
		return c
	}
	return t
}

// rawGradOut returns the register's tensor without the dxCopy borrow
// (for pointer-identity release guards).
func (e *Env) rawGradOut() *tensor.Tensor {
	if e.prog.dOutReg == NoReg {
		return nil
	}
	return e.regs[e.prog.dOutReg]
}

// BackwardWeights replays the grad-weight ops (local parameter
// accumulation; no cross-stage consumers).
func (e *Env) BackwardWeights() {
	e.run(e.prog.bwdW)
}

// EndMicro finishes the micro-batch: releases the incoming gradient and
// any non-emitted borrowed input gradient, guarded by pointer identity
// against passthrough layers that return their argument, then resets
// extern and borrow-out registers so the Env can be rebound. Slot headers
// persist.
func (e *Env) EndMicro() {
	p := e.prog
	dx := e.rawGradOut()
	// A gradient that never leaves the stage (stage 0's dx has no
	// consumer) retires here (guard: a passthrough may alias dx == dy).
	if !p.emitDX && dx != nil && dx != e.dy && p.regs[p.dOutReg].class == regBorrowOut {
		dx.Release()
	}
	// The incoming gradient retires with its micro-batch unless it was
	// passed through as dx: dy was borrowed by the downstream stage (or
	// by CrossEntropy on the last stage).
	if e.dy != nil && dx != e.dy {
		e.dy.Release()
	}
	e.ResetMicro()
}

// ResetMicro drops per-micro references without any releases — EndMicro
// after its releases, and abort paths where ownership of in-flight
// tensors is indeterminate.
func (e *Env) ResetMicro() {
	for r := range e.prog.regs {
		if e.prog.regs[r].class != regSlot {
			e.regs[r] = nil
		}
	}
	e.x, e.dy = nil, nil
}

// CheckPlan validates the plan's safety invariant for an input shape:
// every slot register gets storage of its size, and no two slot
// registers with overlapping live ranges share it. It is the property
// the planner tests assert on randomized graphs.
func (p *Program) CheckPlan(in []int) error {
	ivs := p.slotIntervals(in)
	slotOf, sizes := assignSlots(ivs)
	for i := range ivs {
		if ivs[i].size != sizes[slotOf[i]] {
			return fmt.Errorf("reg %d (size %d) assigned slot %d (size %d)",
				ivs[i].reg, ivs[i].size, slotOf[i], sizes[slotOf[i]])
		}
		for j := i + 1; j < len(ivs); j++ {
			if slotOf[i] != slotOf[j] {
				continue
			}
			a, b := ivs[i], ivs[j]
			if a.def <= b.use && b.def <= a.use {
				return fmt.Errorf("regs %d [%d,%d] and %d [%d,%d] share slot %d while live",
					a.reg, a.def, a.use, b.reg, b.def, b.use, slotOf[i])
			}
		}
	}
	return nil
}
