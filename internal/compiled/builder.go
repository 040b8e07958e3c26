package compiled

import "fmt"

type opRec struct {
	op     Op
	reads  []Reg
	writes []Reg
}

// Builder accumulates a stage's op graph during lowering. Layer
// lowerings emit forward ops immediately (advancing the activation
// cursor) and register backward thunks; Finish runs the thunks in
// reverse layer order to build the grad-input/grad-weight lists, then
// computes register lifetimes.
type Builder struct {
	regs []regInfo
	aux  []func(in []int) any

	fwd, bwdIn, bwdW []opRec

	inReg Reg
	cur   Reg

	bwdThunks []func(dy Reg) Reg

	err error
}

// NewBuilder returns a builder whose cursor is the stage-input
// register (an extern the runtime binds per micro-batch).
func NewBuilder() *Builder {
	b := &Builder{}
	b.inReg = b.Extern(func(in []int) []int { return in })
	b.cur = b.inReg
	return b
}

// Cur returns the activation cursor: the register holding the output of
// the last lowered layer (the next layer's input).
func (b *Builder) Cur() Reg { return b.cur }

// SetCur moves the activation cursor; a lowering calls this after
// emitting the op that writes its output register. Pure passthrough
// layers (eval-mode dropout) may alias by setting the cursor to their
// input register without emitting any op.
func (b *Builder) SetCur(r Reg) { b.cur = r }

// ShapeOf returns the shape function of a register.
func (b *Builder) ShapeOf(r Reg) Shape { return b.regs[r].shape }

func (b *Builder) newReg(class regClass, shape Shape) Reg {
	b.regs = append(b.regs, regInfo{class: class, shape: shape, def: -1, lastUse: -1})
	return Reg(len(b.regs) - 1)
}

// Extern declares a register bound per micro-batch by the runtime.
func (b *Builder) Extern(shape Shape) Reg { return b.newReg(regExtern, shape) }

// Slot declares a planned register: backed by slot storage assigned at
// bind time, shared with other slot registers whose live ranges are
// disjoint. Ops writing a slot register must fully overwrite it (or
// clear it first): slot buffers are not re-zeroed between micro-batches.
func (b *Builder) Slot(shape Shape) Reg { return b.newReg(regSlot, shape) }

// Aux declares a per-Env auxiliary cell. If mk is non-nil it is called
// once at bind time with the stage-input shape to pre-build the cell
// (index slices, statistic buffers); a nil mk leaves the cell nil until
// an op sets it.
func (b *Builder) Aux(mk func(in []int) any) AuxID {
	b.aux = append(b.aux, mk)
	return AuxID(len(b.aux) - 1)
}

func (b *Builder) emit(list *[]opRec, phase Phase, name string, reads, writes []Reg, fn func(*Env)) {
	*list = append(*list, opRec{
		op:     Op{Phase: phase, Name: name, Fn: fn},
		reads:  reads,
		writes: writes,
	})
}

// EmitFwd appends a forward op. reads/writes declare the registers the
// op touches — the planner's only source of lifetime information, so a
// lowering must declare every register its closure dereferences.
func (b *Builder) EmitFwd(name string, reads, writes []Reg, fn func(*Env)) {
	b.emit(&b.fwd, PhaseFwd, name, reads, writes, fn)
}

// EmitBwdIn appends a grad-input op (runs in the BwdIn replay pass).
func (b *Builder) EmitBwdIn(name string, reads, writes []Reg, fn func(*Env)) {
	b.emit(&b.bwdIn, PhaseBwdIn, name, reads, writes, fn)
}

// EmitBwdW appends a grad-weight op (runs in the BwdW replay pass).
func (b *Builder) EmitBwdW(name string, reads, writes []Reg, fn func(*Env)) {
	b.emit(&b.bwdW, PhaseBwdW, name, reads, writes, fn)
}

// OnBackward registers a layer's backward thunk. Finish calls thunks in
// reverse registration order, passing each the register holding the
// gradient of its forward output; the thunk emits BwdIn/BwdW ops and
// returns the register holding the gradient of its forward input
// (NoReg if the layer has no differentiable input, e.g. Embedding).
func (b *Builder) OnBackward(f func(dy Reg) Reg) {
	b.bwdThunks = append(b.bwdThunks, f)
}

// Errorf records a lowering error; Finish reports the first one.
func (b *Builder) Errorf(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Options configures Finish for the stage's position in the pipeline.
type Options struct {
	// EmitOut marks the forward output as crossing the stage boundary
	// (every stage but the last): its tensor is borrowed per micro-batch
	// and ownership passes to the consuming stage.
	EmitOut bool
	// EmitDX marks the input gradient as crossing the stage boundary
	// (every stage but the first).
	EmitDX bool
}

// Finish threads the backward thunks, computes lifetimes, and seals the
// Program.
func (b *Builder) Finish(opts Options) (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.fwd) == 0 && b.cur == b.inReg {
		return nil, fmt.Errorf("compiled: empty stage")
	}
	outReg := b.cur
	outShape := b.regs[outReg].shape

	// The incoming gradient matches the forward output's shape.
	dIn := b.Extern(outShape)
	d := dIn
	for i := len(b.bwdThunks) - 1; i >= 0; i-- {
		d = b.bwdThunks[i](d)
		if b.err != nil {
			return nil, b.err
		}
	}
	dOut := d

	p := &Program{
		regs:    b.regs,
		aux:     b.aux,
		inReg:   b.inReg,
		outReg:  outReg,
		dInReg:  dIn,
		dOutReg: dOut,
		emitOut: opts.EmitOut,
		emitDX:  opts.EmitDX,
	}

	// Lifetimes over the linear fwd → bwdIn → bwdW order. A write also
	// counts as a use: a written-but-never-read register must stay valid
	// through its producing op.
	pos := 0
	touch := func(rs []Reg, isWrite bool) error {
		for _, r := range rs {
			if r == NoReg {
				continue
			}
			if int(r) >= len(p.regs) {
				return fmt.Errorf("compiled: op %d references unknown reg %d", pos, r)
			}
			ri := &p.regs[r]
			if isWrite && ri.def == -1 {
				ri.def = pos
			}
			if !isWrite && ri.def == -1 && ri.class != regExtern {
				return fmt.Errorf("compiled: op %d reads reg %d before any write", pos, r)
			}
			if pos > ri.lastUse {
				ri.lastUse = pos
			}
		}
		return nil
	}
	var recs []opRec
	recs = append(recs, b.fwd...)
	recs = append(recs, b.bwdIn...)
	recs = append(recs, b.bwdW...)
	for _, rec := range recs {
		if err := touch(rec.reads, false); err != nil {
			return nil, err
		}
		if err := touch(rec.writes, true); err != nil {
			return nil, err
		}
		pos++
	}
	// Externs are live from their binding point: the input from op 0,
	// the incoming gradient from the first backward op.
	if p.regs[p.inReg].lastUse >= 0 {
		p.regs[p.inReg].def = 0
	}
	if p.regs[dIn].lastUse >= 0 {
		p.regs[dIn].def = len(b.fwd)
	}

	// Registers whose tensors cross the stage boundary cannot live in
	// reusable slot storage, because ownership passes to the consuming
	// stage (which releases them). Promote them to per-micro-batch
	// borrows — unless a backward op still reads the register after it
	// was shipped, in which case the register keeps its slot and the Env
	// ships a per-micro copy instead (Output/GradOut).
	if opts.EmitOut && p.regs[outReg].class == regSlot {
		if p.regs[outReg].lastUse >= len(b.fwd) {
			p.outCopy = true
		} else {
			p.regs[outReg].class = regBorrowOut
		}
	}
	if opts.EmitDX && dOut != NoReg && p.regs[dOut].class == regSlot {
		if p.regs[dOut].lastUse >= len(b.fwd)+len(b.bwdIn) {
			p.dxCopy = true
		} else {
			p.regs[dOut].class = regBorrowOut
		}
	}

	for _, rec := range recs {
		switch rec.op.Phase {
		case PhaseFwd:
			p.fwd = append(p.fwd, rec.op)
		case PhaseBwdIn:
			p.bwdIn = append(p.bwdIn, rec.op)
		default:
			p.bwdW = append(p.bwdW, rec.op)
		}
	}
	return p, nil
}
