package nn

import (
	"math"
	"testing"

	"avgpipe/internal/compiled"
	"avgpipe/internal/tensor"
)

// runCompiled executes one full micro-batch through a compiled Env:
// forward, grad-input, grad-weight. Returns the forward output and
// input gradient (copies, so the caller can compare after EndMicro).
func runCompiled(t *testing.T, prog *compiled.Program, env *compiled.Env, x, dy *tensor.Tensor) (y, dx *tensor.Tensor) {
	t.Helper()
	env.BindInput(x)
	env.Forward()
	y = env.Output().Clone()
	env.BindGradIn(dy)
	env.BackwardInput()
	dx = cloneGrad(env)
	env.BackwardWeights()
	env.EndMicro()
	return y, dx
}

// cloneGrad copies the Env's input gradient (nil for a stage that starts
// with an embedding) before its slot can be reused.
func cloneGrad(env *compiled.Env) *tensor.Tensor {
	if g := env.GradOut(); g != nil {
		return g.Clone()
	}
	return nil
}

func bitEqual(a, b *tensor.Tensor) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// buildPair constructs two identical models from the same seed: one to
// interpret, one to compile.
func buildPair(mk func(g *tensor.RNG) *Sequential) (ref, cmp *Sequential) {
	return mk(tensor.NewRNG(7)), mk(tensor.NewRNG(7))
}

func checkEquivalence(t *testing.T, name string, mk func(g *tensor.RNG) *Sequential, x *tensor.Tensor, micros int) {
	t.Helper()
	ref, cmp := buildPair(mk)
	prog, err := CompileStage(cmp, compiled.Options{})
	if err != nil {
		t.Fatalf("%s: CompileStage: %v", name, err)
	}
	if err := prog.CheckPlan(x.Shape()); err != nil {
		t.Fatalf("%s: CheckPlan: %v", name, err)
	}
	env := prog.NewEnv(x.Shape())
	for m := 0; m < micros; m++ {
		// Interpreter reference.
		ctx := NewContext()
		refY := ref.Forward(ctx, x, true)
		dy := tensor.Full(0.01, refY.Shape()...)
		refDX := ref.Backward(ctx, dy)

		cmpY, cmpDX := runCompiled(t, prog, env, x, tensor.Full(0.01, refY.Shape()...))
		if !bitEqual(refY, cmpY) {
			t.Fatalf("%s micro %d: forward output differs", name, m)
		}
		if (refDX == nil) != (cmpDX == nil) || (refDX != nil && !bitEqual(refDX, cmpDX)) {
			t.Fatalf("%s micro %d: input gradient differs", name, m)
		}
		rp, cp := ref.Params(), cmp.Params()
		for i := range rp {
			if !bitEqual(rp[i].G, cp[i].G) {
				t.Fatalf("%s micro %d: grad of %s differs", name, m, rp[i].Name)
			}
		}
	}
}

func TestCompileLinearTanhMLPBitExact(t *testing.T) {
	mk := func(g *tensor.RNG) *Sequential {
		return NewSequential(
			NewLinear(g, 6, 8),
			&Tanh{},
			NewLinear(g, 8, 5),
			&ReLU{},
			NewLinear(g, 5, 3),
		)
	}
	x := tensor.NewRNG(11).Normal(0, 1, 4, 6)
	checkEquivalence(t, "mlp", mk, x, 3)
}

func TestCompileStandaloneActivationsBitExact(t *testing.T) {
	mk := func(g *tensor.RNG) *Sequential {
		return NewSequential(
			&Tanh{},
			&Sigmoid{},
			&GELU{},
			&ReLU{},
		)
	}
	x := tensor.NewRNG(3).Normal(0, 2, 5, 7)
	checkEquivalence(t, "acts", mk, x, 2)
}

func TestCompileEmbeddingLayerNormBitExact(t *testing.T) {
	mk := func(g *tensor.RNG) *Sequential {
		return NewSequential(
			NewEmbedding(g, 12, 16),
			NewLayerNorm(16),
			NewLinear(g, 16, 4),
		)
	}
	x := tensor.New(6, 1)
	for i := 0; i < 6; i++ {
		x.Set(float32(i*2%12), i, 0)
	}
	checkEquivalence(t, "embed-ln", mk, x, 2)
}

func TestCompileMeanPoolBitExact(t *testing.T) {
	mk := func(g *tensor.RNG) *Sequential {
		return NewSequential(
			NewLinear(g, 4, 6),
			&MeanPoolTime{SeqLen: 3},
			NewLinear(g, 6, 2),
		)
	}
	x := tensor.NewRNG(5).Normal(0, 1, 3*4, 4) // seqLen 3, batch 4
	checkEquivalence(t, "meanpool", mk, x, 2)
}

func TestCompileDropoutBitExact(t *testing.T) {
	// Dropout draws from the module's RNG: both models start from the
	// same seed and both paths must consume the stream identically.
	mk := func(g *tensor.RNG) *Sequential {
		return NewSequential(
			NewLinear(g, 6, 8),
			NewDropout(tensor.NewRNG(99), 0.3),
			NewLinear(g, 8, 3),
		)
	}
	x := tensor.NewRNG(13).Normal(0, 1, 4, 6)
	checkEquivalence(t, "dropout", mk, x, 3)
}

// TestCompileLSTMBitExact: the recurrent lowerings — an LSTM (hidden 16,
// whole vector blocks), one with recurrent DropConnect (hidden 9, a block
// and a tail) feeding a second LSTM, a BiLSTM, and Reverse alone — match
// the interpreter's output, dx and every gradient bit for bit over three
// micro-batches, each drawing a fresh DropConnect mask.
func TestCompileLSTMBitExact(t *testing.T) {
	const seqLen, batch, dim = 3, 2, 5
	x := tensor.NewRNG(17).Normal(0, 1, seqLen*batch, dim)
	for _, c := range []struct {
		name string
		mk   func(g *tensor.RNG) *Sequential
	}{
		{"lstm", func(g *tensor.RNG) *Sequential {
			return NewSequential(NewLSTM(g, dim, 16, seqLen), NewLinear(g, 16, 4))
		}},
		{"lstm dropconnect", func(g *tensor.RNG) *Sequential {
			l := NewLSTM(g, dim, 9, seqLen)
			l.RecurrentDropP = 0.1
			return NewSequential(l, NewLSTM(g, 9, dim, seqLen))
		}},
		{"bilstm", func(g *tensor.RNG) *Sequential {
			return NewSequential(NewBiLSTM(g, dim, 4, seqLen), NewLinear(g, 8, 3))
		}},
		{"reverse", func(g *tensor.RNG) *Sequential {
			return NewSequential(NewLinear(g, dim, 4), &Reverse{SeqLen: seqLen}, NewLinear(g, 4, 3))
		}},
	} {
		checkEquivalence(t, c.name, c.mk, x, 3)
	}
}

// recurrentModel is a toy translation (BiLSTM encoder, as in the
// translation example) or language model (recurrent DropConnect on the
// first LSTM) over tokens below 12.
func recurrentModel(seqLen int, lm bool) func(g *tensor.RNG) *Sequential {
	return func(g *tensor.RNG) *Sequential {
		first := Module(NewBiLSTM(g, 8, 4, seqLen))
		if lm {
			l := NewLSTM(g, 8, 8, seqLen)
			l.RecurrentDropP = 0.2
			first = l
		}
		return NewSequential(NewEmbedding(g, 12, 8), first, NewLSTM(g, 8, 8, seqLen), NewLinear(g, 8, 12))
	}
}

func TestCompileAttentionBitExact(t *testing.T) {
	const seqLen, batch, dim = 3, 4, 8
	mk := func(g *tensor.RNG) *Sequential {
		return NewSequential(
			NewMultiHeadSelfAttention(g, dim, 2, seqLen),
			NewLinear(g, dim, 3),
		)
	}
	x := tensor.NewRNG(19).Normal(0, 1, seqLen*batch, dim)
	checkEquivalence(t, "attention", mk, x, 3)
}

// encoderModel is a small BERT-analog classifier: the layer stack of
// ClassificationTask at toy sizes.
func encoderModel(seqLen int) func(g *tensor.RNG) *Sequential {
	return func(g *tensor.RNG) *Sequential {
		return NewSequential(
			NewEmbedding(g, 12, 8),
			NewTransformerEncoderLayer(g, 8, 2, 16, seqLen),
			NewTransformerEncoderLayer(g, 8, 2, 16, seqLen),
			&MeanPoolTime{SeqLen: seqLen},
			NewLinear(g, 8, 2),
		)
	}
}

// tokens returns seqLen*batch token IDs below 12 as a (rows, 1) input.
func tokens(seed int64, seqLen, batch int) *tensor.Tensor {
	x := tensor.New(seqLen*batch, 1)
	r := tensor.NewRNG(seed).Uniform(0, 12, seqLen*batch)
	for i, v := range r.Data() {
		x.Set(float32(int(v)), i, 0)
	}
	return x
}

func TestCompileEncoderBitExact(t *testing.T) {
	const seqLen, batch = 4, 3
	checkEquivalence(t, "encoder", encoderModel(seqLen), tokens(31, seqLen, batch), 3)
	// An encoder layer alone: its input is the stage's extern and its dx
	// the stage's input gradient.
	mk := func(g *tensor.RNG) *Sequential {
		return NewSequential(NewTransformerEncoderLayer(g, 8, 2, 16, seqLen))
	}
	checkEquivalence(t, "encoder layer", mk, tensor.NewRNG(37).Normal(0, 1, seqLen*batch, 8), 3)
}

// TestCompileInferenceBitExact pins the serving-path contract: a
// program from CompileStageInference replays the interpreter's
// *eval-mode* forward (train=false) bit-exactly — dropout is an
// identity and draws no RNG, and an LSTM with recurrent DropConnect runs
// without its mask — and so do lowered classification, translation and
// language models. Repeated forwards of the same input must also be
// identical to each other: inference is stateless.
func TestCompileInferenceBitExact(t *testing.T) {
	const seqLen, batch, dim = 3, 2, 5
	mk := func(g *tensor.RNG) *Sequential {
		l := NewLSTM(g, dim, dim, seqLen)
		l.RecurrentDropP = 0.4
		return NewSequential(
			NewLinear(g, 4, dim),
			NewDropout(tensor.NewRNG(99), 0.5),
			l,
			NewLinear(g, dim, 3),
		)
	}
	x := tensor.NewRNG(21).Normal(0, 1, seqLen*batch, 4)
	refY := checkInference(t, "lstm", mk, x)

	checkInference(t, "classification", encoderModel(4), tokens(41, 4, 3))
	checkInference(t, "translation", recurrentModel(4, false), tokens(43, 4, 3))
	checkInference(t, "langmodel", recurrentModel(4, true), tokens(47, 4, 3))

	// Sanity: the training compile of the same model is NOT the eval
	// forward (dropout actually drops), so the two modes are really
	// distinct programs.
	_, cmp2 := buildPair(mk)
	trainProg, err := CompileStage(cmp2, compiled.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tenv := trainProg.NewEnv(x.Shape())
	tenv.BindInput(x)
	tenv.Forward()
	ty := tenv.Output().Clone()
	tenv.EndMicro()
	if bitEqual(refY, ty) {
		t.Fatal("train-mode compile reproduced the eval forward — dropout not applied?")
	}
}

// checkInference compiles mk's model for inference and requires three
// repeated forwards of x to equal the interpreter's eval forward bit for
// bit; it returns that forward.
func checkInference(t *testing.T, name string, mk func(g *tensor.RNG) *Sequential, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	ref, cmp := buildPair(mk)
	prog, err := CompileStageInference(cmp, compiled.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.CheckPlan(x.Shape()); err != nil {
		t.Fatal(err)
	}
	refY := ref.Forward(NewContext(), x, false)
	env := prog.NewEnv(x.Shape())
	var first *tensor.Tensor
	for m := 0; m < 3; m++ {
		env.BindInput(x)
		env.Forward()
		y := env.Output().Clone()
		env.EndMicro()
		if !bitEqual(refY, y) {
			t.Fatalf("%s micro %d: inference output differs from interpreter eval forward", name, m)
		}
		if first == nil {
			first = y
		} else if !bitEqual(first, y) {
			t.Fatalf("%s micro %d: repeated inference forward not deterministic", name, m)
		}
	}
	return refY
}

// TestCompiledReentrancy runs two in-flight micro-batches interleaved
// (F0, F1, Bi1, Bw1, Bi0, Bw0) through stochastic and stash-heavy
// layers — and through encoder layers, whose attention scratch and views
// live in each Env — and checks each against a sequential interpreter
// reference: the regression test for stash-in-module state. Per-micro
// state must live in the Env, so overlapping micro-batches cannot corrupt
// each other.
func TestCompiledReentrancy(t *testing.T) {
	for _, c := range []struct {
		name   string
		mk     func(g *tensor.RNG) *Sequential
		x0, x1 *tensor.Tensor
	}{
		{"mlp", func(g *tensor.RNG) *Sequential {
			return NewSequential(
				NewLinear(g, 6, 8),
				&Sigmoid{},
				NewDropout(tensor.NewRNG(42), 0.25),
				NewLayerNorm(8),
				NewLinear(g, 8, 3),
			)
		}, tensor.NewRNG(1).Normal(0, 1, 4, 6), tensor.NewRNG(2).Normal(0, 1, 4, 6)},
		{"encoder", encoderModel(4), tokens(1, 4, 3), tokens(2, 4, 3)},
		{"lstm", recurrentModel(4, true), tokens(3, 4, 3), tokens(4, 4, 3)},
	} {
		ref, cmp := buildPair(c.mk)
		prog, err := CompileStage(cmp, compiled.Options{})
		if err != nil {
			t.Fatal(err)
		}
		x0, x1 := c.x0, c.x1

		// Interpreter reference: contexts interleave the same way so the
		// dropout RNG stream is consumed in the same order (forward order
		// F0, F1 in both paths).
		ctx0, ctx1 := NewContext(), NewContext()
		refY0 := ref.Forward(ctx0, x0, true)
		refY1 := ref.Forward(ctx1, x1, true)
		refDX1 := ref.Backward(ctx1, tensor.Full(0.01, refY1.Shape()...))
		refDX0 := ref.Backward(ctx0, tensor.Full(0.02, refY0.Shape()...))

		env0 := prog.NewEnv(x0.Shape())
		env1 := prog.NewEnv(x1.Shape())
		env0.BindInput(x0)
		env0.Forward()
		y0 := env0.Output().Clone()
		env1.BindInput(x1)
		env1.Forward()
		y1 := env1.Output().Clone()

		env1.BindGradIn(tensor.Full(0.01, y1.Shape()...))
		env1.BackwardInput()
		dx1 := cloneGrad(env1)
		env1.BackwardWeights()
		env1.EndMicro()

		env0.BindGradIn(tensor.Full(0.02, y0.Shape()...))
		env0.BackwardInput()
		dx0 := cloneGrad(env0)
		env0.BackwardWeights()
		env0.EndMicro()

		if !bitEqual(refY0, y0) || !bitEqual(refY1, y1) {
			t.Fatalf("%s: in-flight forward outputs corrupted across micro-batches", c.name)
		}
		if !bitEqual(refDX1, dx1) || !bitEqual(refDX0, dx0) {
			t.Fatalf("%s: in-flight input gradients corrupted across micro-batches", c.name)
		}
		rp, cp := ref.Params(), cmp.Params()
		for i := range rp {
			if !bitEqual(rp[i].G, cp[i].G) {
				t.Fatalf("%s: grad of %s differs under interleaved micro-batches", c.name, rp[i].Name)
			}
		}
	}
}

// TestCompiledSteadyStateZeroArena verifies the allocation contract
// directly: after warm-up, replaying a fully lowered stage — an MLP, and
// an encoder layer with its attention — performs zero arena borrows and
// zero arena releases per micro-batch.
func TestCompiledSteadyStateZeroArena(t *testing.T) {
	g := tensor.NewRNG(23)
	for _, c := range []struct {
		name  string
		stage *Sequential
		x     *tensor.Tensor
	}{
		{"mlp", NewSequential(
			NewLinear(g, 16, 16),
			&Tanh{},
			NewLayerNorm(16),
			NewLinear(g, 16, 8),
		), tensor.NewRNG(29).Normal(0, 1, 8, 16)},
		{"encoder", NewSequential(
			NewTransformerEncoderLayer(g, 16, 4, 32, 4),
			NewLinear(g, 16, 8),
		), tensor.NewRNG(29).Normal(0, 1, 4*2, 16)},
		{"lstm", NewSequential(
			NewBiLSTM(g, 16, 8, 4),
			NewLSTM(g, 16, 16, 4),
			NewLinear(g, 16, 8),
		), tensor.NewRNG(29).Normal(0, 1, 4*2, 16)},
	} {
		prog, err := CompileStage(c.stage, compiled.Options{})
		if err != nil {
			t.Fatal(err)
		}
		env := prog.NewEnv(c.x.Shape())
		dyShape := []int{c.x.Dim(0), 8}
		run := func() {
			env.BindInput(c.x)
			env.Forward()
			env.BindGradIn(tensor.FromSlice(make([]float32, dyShape[0]*dyShape[1]), dyShape...))
			env.BackwardInput()
			env.BackwardWeights()
			env.EndMicro()
		}
		run() // warm-up
		before := tensor.ReadArenaStats()
		for i := 0; i < 5; i++ {
			run()
		}
		after := tensor.ReadArenaStats()
		if got := after.Borrows - before.Borrows; got != 0 {
			t.Fatalf("%s: steady-state compiled replay made %d arena borrows, want 0", c.name, got)
		}
		if got := after.Releases - before.Releases; got != 0 {
			t.Fatalf("%s: steady-state compiled replay made %d arena releases, want 0", c.name, got)
		}
	}
}
