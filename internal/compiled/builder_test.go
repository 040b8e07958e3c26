package compiled

import (
	"testing"

	"avgpipe/internal/tensor"
)

func ident(in []int) []int { return in }

// buildChain lowers a synthetic three-layer stage, the middle layer a
// passthrough in backward. Exercises the full builder path without
// depending on internal/nn.
func buildChain(t *testing.T, opts Options) *Program {
	t.Helper()
	b := NewBuilder()

	y1 := b.Slot(ident)
	x := b.Cur()
	b.EmitFwd("scale2", []Reg{x}, []Reg{y1}, func(e *Env) {
		dst, src := e.Reg(y1).Data(), e.Reg(x).Data()
		for i := range dst {
			dst[i] = 2 * src[i]
		}
	})
	b.SetCur(y1)
	b.OnBackward(func(dy Reg) Reg {
		dx := b.Slot(ident)
		b.EmitBwdIn("scale2.dx", []Reg{dy}, []Reg{dx}, func(e *Env) {
			dst, src := e.Reg(dx).Data(), e.Reg(dy).Data()
			for i := range dst {
				dst[i] = 2 * src[i]
			}
		})
		return dx
	})

	y2 := b.Slot(ident)
	x2 := b.Cur()
	b.EmitFwd("add1", []Reg{x2}, []Reg{y2}, func(e *Env) {
		dst, src := e.Reg(y2).Data(), e.Reg(x2).Data()
		for i := range dst {
			dst[i] = src[i] + 1
		}
	})
	b.SetCur(y2)
	b.OnBackward(func(dy Reg) Reg { return dy })

	y3 := b.Slot(ident)
	x3 := b.Cur()
	b.EmitFwd("neg", []Reg{x3}, []Reg{y3}, func(e *Env) {
		dst, src := e.Reg(y3).Data(), e.Reg(x3).Data()
		for i := range dst {
			dst[i] = -src[i]
		}
	})
	b.SetCur(y3)
	b.OnBackward(func(dy Reg) Reg {
		dx := b.Slot(ident)
		b.EmitBwdIn("neg.dx", []Reg{dy}, []Reg{dx}, func(e *Env) {
			dst, src := e.Reg(dx).Data(), e.Reg(dy).Data()
			for i := range dst {
				dst[i] = -src[i]
			}
		})
		return dx
	})

	p, err := b.Finish(opts)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

// TestBuilderChainValues sanity-checks the lowered chain's arithmetic:
// y = -(2x+1), dx = -2·dy.
func TestBuilderChainValues(t *testing.T) {
	p := buildChain(t, Options{})
	in := []int{2, 2}
	if err := p.CheckPlan(in); err != nil {
		t.Fatalf("CheckPlan: %v", err)
	}
	env := p.NewEnv(in)
	env.BindInput(tensor.Full(3, in...))
	env.Forward()
	if got := env.Output().Data()[0]; got != -7 {
		t.Fatalf("forward: got %v, want -7", got)
	}
	env.BindGradIn(tensor.Full(1, in...))
	env.BackwardInput()
	if got := env.GradOut().Data()[0]; got != -2 {
		t.Fatalf("backward: got %v, want -2", got)
	}
	env.BackwardWeights()
	env.EndMicro()
}

// TestBuilderBoundaryPromotion checks the stage-boundary rules: a
// slot-backed output shipped downstream is promoted to a per-micro
// borrow; one still read by backward keeps its slot and ships a copy.
func TestBuilderBoundaryPromotion(t *testing.T) {
	// In buildChain, y3 (the output) is not read by any backward op, so
	// EmitOut must promote it to regBorrowOut, not outCopy.
	p := buildChain(t, Options{EmitOut: true, EmitDX: true})
	if p.outCopy {
		t.Fatal("output unused by backward should be promoted, not copied")
	}
	if p.regs[p.outReg].class != regBorrowOut {
		t.Fatalf("output class = %d, want regBorrowOut", p.regs[p.outReg].class)
	}
	if p.regs[p.dOutReg].class != regBorrowOut || p.dxCopy {
		t.Fatal("emitted dx unused after BwdIn should be promoted, not copied")
	}

	// Now a stage whose slot output IS read by backward: stash-output
	// activation at the stage end. Finish must keep the slot and set
	// outCopy so the backward replay still sees valid data after the
	// downstream stage releases its copy.
	b := NewBuilder()
	y := b.Slot(ident)
	x := b.Cur()
	b.EmitFwd("sq", []Reg{x}, []Reg{y}, func(e *Env) {
		dst, src := e.Reg(y).Data(), e.Reg(x).Data()
		for i := range dst {
			dst[i] = src[i] * src[i]
		}
	})
	b.SetCur(y)
	b.OnBackward(func(dy Reg) Reg {
		dx := b.Slot(ident)
		b.EmitBwdIn("sq.dx", []Reg{dy, y}, []Reg{dx}, func(e *Env) {})
		return dx
	})
	p2, err := b.Finish(Options{EmitOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if !p2.outCopy {
		t.Fatal("output read by backward must use the copy-out path")
	}
	if p2.regs[p2.outReg].class != regSlot {
		t.Fatal("copy-out output must keep its slot")
	}
	env := p2.NewEnv([]int{2, 2})
	env.BindInput(tensor.Full(3, 2, 2))
	env.Forward()
	out := env.Output()
	if out == env.Reg(p2.outReg) {
		t.Fatal("Output() with outCopy must not alias the slot tensor")
	}
	if out.Data()[0] != 9 {
		t.Fatalf("copied output = %v, want 9", out.Data()[0])
	}
	out.Release()
}

// TestBuilderErrors covers lowering error paths.
func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Finish(Options{}); err == nil {
		t.Fatal("empty stage must not compile")
	}

	b = NewBuilder()
	y := b.Slot(ident)
	b.EmitFwd("bad", []Reg{y}, nil, func(e *Env) {}) // read before any write
	b.SetCur(y)
	if _, err := b.Finish(Options{}); err == nil {
		t.Fatal("read-before-write must not compile")
	}

	b = NewBuilder()
	b.Errorf("lowering failed: %s", "unsupported layer")
	if _, err := b.Finish(Options{}); err == nil {
		t.Fatal("Errorf must surface from Finish")
	}
}
