package nn

import (
	"math"
	"testing"

	"avgpipe/internal/autograd"
	"avgpipe/internal/tensor"
)

const gradTol = 6e-2

// lossOf runs a deterministic forward pass and reduces the output with a
// fixed random weighting R so that dLoss/dOut = R exercises arbitrary
// upstream gradients.
func lossOf(m Module, x *tensor.Tensor, r *tensor.Tensor) float64 {
	ctx := NewContext()
	out := m.Forward(ctx, x, true)
	return tensor.Dot(out, r)
}

// checkModuleGrads verifies the module's parameter and input gradients
// against central differences. The module must be deterministic under
// train=true (no dropout).
func checkModuleGrads(t *testing.T, m Module, x *tensor.Tensor, outShape []int, checkInput bool) {
	t.Helper()
	r := tensor.NewRNG(99).Normal(0, 1, outShape...)
	ctx := NewContext()
	out := m.Forward(ctx, x, true)
	if !out.SameShape(r) {
		t.Fatalf("output shape %v, expected %v", out.Shape(), r.Shape())
	}
	ZeroGrads(m.Params())
	dx := m.Backward(ctx, r.Clone())
	if ctx.Len() != 0 {
		t.Fatalf("context stash not drained: %d left", ctx.Len())
	}
	for _, p := range m.Params() {
		num := autograd.NumericGrad(p.W, 1e-2, func() float64 { return lossOf(m, x, r) })
		if e := autograd.MaxRelError(p.G, num); e > gradTol {
			t.Errorf("param %s grad rel error %v", p.Name, e)
		}
	}
	if checkInput {
		num := autograd.NumericGrad(x, 1e-2, func() float64 { return lossOf(m, x, r) })
		if e := autograd.MaxRelError(dx, num); e > gradTol {
			t.Errorf("input grad rel error %v", e)
		}
	}
}

func TestLinearForwardValues(t *testing.T) {
	l := NewLinear(tensor.NewRNG(1), 2, 2)
	l.W.W.CopyFrom(tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2))
	l.B.W.CopyFrom(tensor.FromSlice([]float32{10, 20}, 2))
	ctx := NewContext()
	y := l.Forward(ctx, tensor.FromSlice([]float32{1, 1}, 1, 2), false)
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("linear forward: %v", y)
	}
}

func TestLinearGradCheck(t *testing.T) {
	g := tensor.NewRNG(2)
	checkModuleGrads(t, NewLinear(g, 4, 3), g.Normal(0, 1, 5, 4), []int{5, 3}, true)
}

func TestEmbeddingGradCheck(t *testing.T) {
	g := tensor.NewRNG(3)
	e := NewEmbedding(g, 7, 4)
	toks := tensor.FromSlice([]float32{3, 0, 3, 6, 1}, 5)
	checkModuleGrads(t, e, toks, []int{5, 4}, false)
}

func TestEmbeddingRejectsOutOfVocab(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEmbedding(tensor.NewRNG(1), 4, 2)
	e.Forward(NewContext(), tensor.FromSlice([]float32{5}, 1), false)
}

func TestActivationLayersGradCheck(t *testing.T) {
	g := tensor.NewRNG(4)
	// Shift inputs away from the ReLU kink for stable finite differences.
	x := tensor.Apply(g.Normal(0, 1, 4, 3), func(v float32) float32 {
		if v >= 0 {
			return v + 0.15
		}
		return v - 0.15
	})
	for name, m := range map[string]Module{
		"relu": &ReLU{}, "tanh": &Tanh{}, "sigmoid": &Sigmoid{}, "gelu": &GELU{},
	} {
		t.Run(name, func(t *testing.T) {
			checkModuleGrads(t, m, x, []int{4, 3}, true)
		})
	}
}

func TestLayerNormGradCheck(t *testing.T) {
	g := tensor.NewRNG(5)
	ln := NewLayerNorm(6)
	// Non-trivial gain/bias so their gradients are exercised.
	ln.Gain.W.CopyFrom(g.Uniform(0.5, 1.5, 6))
	ln.Bias.W.CopyFrom(g.Normal(0, 0.2, 6))
	checkModuleGrads(t, ln, g.Normal(0, 1, 5, 6), []int{5, 6}, true)
}

func TestLayerNormNormalizes(t *testing.T) {
	g := tensor.NewRNG(6)
	ln := NewLayerNorm(64)
	y := ln.Forward(NewContext(), g.Normal(3, 2, 10, 64), false)
	for r := 0; r < 10; r++ {
		row := y.SliceRows(r, r+1)
		if math.Abs(row.Mean()) > 1e-4 {
			t.Fatalf("row %d mean %v", r, row.Mean())
		}
		std := row.L2Norm() / math.Sqrt(64)
		if math.Abs(std-1) > 1e-2 {
			t.Fatalf("row %d std %v", r, std)
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	g := tensor.NewRNG(7)
	d := NewDropout(g, 0.5)
	x := tensor.Ones(10000)
	ctxEval := NewContext()
	if y := d.Forward(ctxEval, x, false); y != x {
		t.Fatal("eval-mode dropout must be identity")
	}
	if dy := d.Backward(ctxEval, tensor.Ones(10000)); dy.Sum() != 10000 {
		t.Fatal("eval-mode dropout backward must be identity")
	}
	ctx := NewContext()
	y := d.Forward(ctx, x, true)
	frac := y.Sum() / 10000 // survivors scaled by 2, so expectation is 1
	if frac < 0.9 || frac > 1.1 {
		t.Fatalf("inverted dropout expectation broken: %v", frac)
	}
	// Backward must gate exactly where forward gated.
	dy := d.Backward(ctx, tensor.Ones(10000))
	for i := range y.Data() {
		if (y.Data()[i] == 0) != (dy.Data()[i] == 0) {
			t.Fatal("dropout backward mask differs from forward mask")
		}
	}
}

func TestLSTMGradCheck(t *testing.T) {
	g := tensor.NewRNG(8)
	l := NewLSTM(g, 3, 4, 3)  // seqLen 3
	x := g.Normal(0, 1, 6, 3) // T=3, B=2
	checkModuleGrads(t, l, x, []int{6, 4}, true)
}

func TestLSTMStatePropagation(t *testing.T) {
	// With a nonzero input only at t=0, later outputs must still be
	// nonzero: state carries forward.
	g := tensor.NewRNG(9)
	l := NewLSTM(g, 2, 3, 4)
	x := tensor.New(4, 2)
	x.Set(1, 0, 0)
	y := l.Forward(NewContext(), x, false)
	last := y.SliceRows(3, 4)
	if last.L2Norm() == 0 {
		t.Fatal("LSTM must propagate state across timesteps")
	}
}

func TestLSTMWeightDrop(t *testing.T) {
	g := tensor.NewRNG(10)
	l := NewLSTM(g, 2, 8, 2)
	l.RecurrentDropP = 0.5
	x := g.Normal(0, 1, 4, 2)
	// Two training forwards should differ (different masks) while eval
	// forwards are deterministic.
	a := l.Forward(NewContext(), x, true)
	b := l.Forward(NewContext(), x, true)
	if tensor.Sub(a, b).L2Norm() == 0 {
		t.Fatal("weight-drop masks should differ across forwards")
	}
	e1 := l.Forward(NewContext(), x, false)
	e2 := l.Forward(NewContext(), x, false)
	if tensor.Sub(e1, e2).L2Norm() != 0 {
		t.Fatal("eval forward must be deterministic")
	}
	// Backward with weight drop must run and only update via the mask.
	ctx := NewContext()
	out := l.Forward(ctx, x, true)
	ZeroGrads(l.Params())
	l.Backward(ctx, tensor.Ones(out.Shape()...))
	if l.Wh.G.L2Norm() == 0 {
		t.Fatal("expected recurrent weight gradient")
	}
}

func TestAttentionGradCheck(t *testing.T) {
	g := tensor.NewRNG(11)
	a := NewMultiHeadSelfAttention(g, 4, 2, 3)
	x := g.Normal(0, 1, 6, 4) // T=3, B=2
	checkModuleGrads(t, a, x, []int{6, 4}, true)
}

func TestAttentionBatchIndependence(t *testing.T) {
	// Changing batch element 1 must not affect batch element 0's output.
	g := tensor.NewRNG(12)
	a := NewMultiHeadSelfAttention(g, 4, 2, 3)
	x1 := g.Normal(0, 1, 6, 4)
	x2 := x1.Clone()
	// Perturb only batch element 1 (odd rows in time-major layout, B=2).
	for t0 := 0; t0 < 3; t0++ {
		for j := 0; j < 4; j++ {
			x2.Set(x2.At(t0*2+1, j)+1, t0*2+1, j)
		}
	}
	y1 := a.Forward(NewContext(), x1, false)
	y2 := a.Forward(NewContext(), x2, false)
	for t0 := 0; t0 < 3; t0++ {
		for j := 0; j < 4; j++ {
			if y1.At(t0*2, j) != y2.At(t0*2, j) {
				t.Fatal("attention leaked across batch elements")
			}
		}
	}
}

func TestTransformerEncoderLayerGradCheck(t *testing.T) {
	g := tensor.NewRNG(13)
	tr := NewTransformerEncoderLayer(g, 4, 2, 8, 2)
	x := g.Normal(0, 1, 4, 4) // T=2, B=2
	checkModuleGrads(t, tr, x, []int{4, 4}, true)
}

func TestMeanPoolTimeGradCheck(t *testing.T) {
	g := tensor.NewRNG(14)
	m := &MeanPoolTime{SeqLen: 3}
	x := g.Normal(0, 1, 6, 4)
	checkModuleGrads(t, m, x, []int{2, 4}, true)
}

func TestSequentialComposesAndSlices(t *testing.T) {
	g := tensor.NewRNG(15)
	seq := NewSequential(NewLinear(g, 3, 5), &Tanh{}, NewLinear(g, 5, 2))
	x := g.Normal(0, 1, 4, 3)
	checkModuleGrads(t, seq, x, []int{4, 2}, true)
	if got := len(seq.Params()); got != 4 {
		t.Fatalf("Params count %d, want 4", got)
	}
	head := seq.Slice(0, 2)
	tail := seq.Slice(2, 3)
	ctx := NewContext()
	full := seq.Forward(NewContext(), x, false)
	split := tail.Forward(ctx, head.Forward(ctx, x, false), false)
	if tensor.Sub(full, split).L2Norm() != 0 {
		t.Fatal("sliced stages must compute the same function")
	}
}

func TestSequentialStagePipelinesViaContexts(t *testing.T) {
	// Simulate two in-flight micro-batches on one stage: each owns a
	// context; backward of the first must not disturb the second.
	g := tensor.NewRNG(16)
	stage := NewSequential(NewLinear(g, 3, 3), &ReLU{})
	x1 := g.Normal(0, 1, 2, 3)
	x2 := g.Normal(0, 1, 2, 3)
	c1, c2 := NewContext(), NewContext()
	y1 := stage.Forward(c1, x1, true)
	y2 := stage.Forward(c2, x2, true)
	ZeroGrads(stage.Params())
	stage.Backward(c1, tensor.Ones(y1.Shape()...))
	stage.Backward(c2, tensor.Ones(y2.Shape()...))
	if c1.Len() != 0 || c2.Len() != 0 {
		t.Fatal("stashes must drain independently")
	}
}

func TestCrossEntropyMatchesAutograd(t *testing.T) {
	g := tensor.NewRNG(17)
	logits := g.Normal(0, 1, 4, 5)
	targets := []int{0, 3, 2, 4}
	loss, grad := CrossEntropy(logits, targets)
	tp := autograd.NewTape()
	v := tp.Var(logits)
	ref := tp.SoftmaxCrossEntropy(v, targets)
	tp.Backward(ref)
	if math.Abs(loss-float64(ref.T.At())) > 1e-5 {
		t.Fatalf("loss %v vs autograd %v", loss, ref.T.At())
	}
	if e := autograd.MaxRelError(grad, v.Grad); e > 1e-4 {
		t.Fatalf("grad rel error %v", e)
	}
}

func TestCrossEntropyIgnoresPadding(t *testing.T) {
	g := tensor.NewRNG(18)
	logits := g.Normal(0, 1, 3, 4)
	lossAll, _ := CrossEntropy(logits.SliceRows(0, 2), []int{1, 2})
	lossPad, gradPad := CrossEntropy(logits, []int{1, 2, -1})
	if math.Abs(lossAll-lossPad) > 1e-6 {
		t.Fatalf("padding changed loss: %v vs %v", lossAll, lossPad)
	}
	if gradPad.SliceRows(2, 3).L2Norm() != 0 {
		t.Fatal("padding rows must get zero gradient")
	}
}

func TestMSEAndAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 0, 0, 1, 1, 0}, 3, 2)
	if acc := Accuracy(logits, []int{0, 1, 1}); math.Abs(acc-2.0/3) > 1e-9 {
		t.Fatalf("accuracy %v", acc)
	}
	if acc := Accuracy(logits, []int{0, 1, -1}); acc != 1 {
		t.Fatalf("accuracy with padding %v", acc)
	}
}

func TestContextStashAccounting(t *testing.T) {
	c := NewContext()
	c.Push(tensor.New(10, 10))
	c.Push("not a tensor")
	if c.Bytes() != 400 {
		t.Fatalf("Bytes = %d, want 400", c.Bytes())
	}
	if c.Len() != 2 {
		t.Fatal("Len")
	}
	_ = c.Pop()
	_ = c.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty pop")
		}
	}()
	c.Pop()
}

func TestCloneParamsAndNumParams(t *testing.T) {
	g := tensor.NewRNG(19)
	a := NewLinear(g, 3, 2)
	if NumParams(a.Params()) != 3*2+2 {
		t.Fatalf("NumParams = %d", NumParams(a.Params()))
	}
}
