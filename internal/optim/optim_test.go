package optim

import (
	"math"
	"testing"

	"avgpipe/internal/nn"
	"avgpipe/internal/tensor"
)

// quadratic sets up a single scalar-ish parameter minimizing f(w) = ½|w-target|²,
// whose gradient is (w - target).
func quadratic(init, target float32, n int) (*nn.Param, func() *tensor.Tensor) {
	p := nn.NewParam("w", tensor.Full(init, n))
	grad := func() *tensor.Tensor {
		return tensor.AddScalar(p.W, -target)
	}
	return p, grad
}

func converges(t *testing.T, opt Optimizer, steps int, tol float64) {
	t.Helper()
	p, grad := quadratic(5, 1, 4)
	for i := 0; i < steps; i++ {
		p.G.CopyFrom(grad())
		opt.Step([]*nn.Param{p})
	}
	for _, v := range p.W.Data() {
		if math.Abs(float64(v)-1) > tol {
			t.Fatalf("%s did not converge: w=%v", opt.Name(), v)
		}
	}
}

func TestSGDStepValue(t *testing.T) {
	p := nn.NewParam("w", tensor.Full(1, 2))
	p.G.Fill(0.5)
	NewSGD(0.1).Step([]*nn.Param{p})
	if got := p.W.At(0); math.Abs(float64(got)-0.95) > 1e-6 {
		t.Fatalf("w = %v, want 0.95", got)
	}
}

func TestSGDConverges(t *testing.T)     { converges(t, NewSGD(0.1), 200, 1e-3) }
func TestAdamConverges(t *testing.T)    { converges(t, NewAdam(0.1), 400, 1e-2) }
func TestAdaGradConverges(t *testing.T) { converges(t, NewAdaGrad(1.0), 400, 1e-2) }

func TestSGDMomentumAcceleratesOnQuadratic(t *testing.T) {
	run := func(momentum float64) float64 {
		p, grad := quadratic(5, 1, 1)
		opt := &SGD{LR: 0.05, Momentum: momentum}
		for i := 0; i < 30; i++ {
			p.G.CopyFrom(grad())
			opt.Step([]*nn.Param{p})
		}
		return math.Abs(float64(p.W.At(0)) - 1)
	}
	if run(0.9) >= run(0) {
		t.Fatal("momentum should make faster progress on a smooth quadratic")
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := nn.NewParam("w", tensor.Full(1, 1))
	opt := &SGD{LR: 0.1, WeightDecay: 0.5}
	p.G.Zero()
	opt.Step([]*nn.Param{p})
	if got := p.W.At(0); math.Abs(float64(got)-0.95) > 1e-6 {
		t.Fatalf("w = %v, want 0.95 from decay alone", got)
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// With bias correction, the first Adam step is ≈ lr regardless of
	// gradient scale.
	for _, gscale := range []float32{0.001, 1, 1000} {
		p := nn.NewParam("w", tensor.Full(0, 1))
		p.G.Fill(gscale)
		NewAdam(0.1).Step([]*nn.Param{p})
		if got := float64(p.W.At(0)); math.Abs(got+0.1) > 1e-3 {
			t.Fatalf("first Adam step %v for grad %v, want ≈ -0.1", got, gscale)
		}
	}
}

func TestASGDAverageStabilizes(t *testing.T) {
	// Oscillating gradients make raw iterates bounce; the Polyak average
	// should sit near the center of the oscillation.
	p := nn.NewParam("w", tensor.Full(0, 1))
	opt := NewASGD(0.5, 1)
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			p.G.Fill(1)
		} else {
			p.G.Fill(-1)
		}
		opt.Step([]*nn.Param{p})
	}
	avg := nn.NewParam("w", p.W.Clone())
	// Average() writes into the same identity it saw during Step.
	opt.Average([]*nn.Param{p})
	if math.Abs(float64(p.W.At(0))) > 0.3 {
		t.Fatalf("ASGD average should damp oscillation, got %v", p.W.At(0))
	}
	_ = avg
}

func TestASGDBeforeTriggerNoAverage(t *testing.T) {
	p := nn.NewParam("w", tensor.Full(1, 1))
	opt := NewASGD(0.1, 100)
	p.G.Fill(1)
	opt.Step([]*nn.Param{p})
	w := p.W.At(0)
	opt.Average([]*nn.Param{p})
	if p.W.At(0) != w {
		t.Fatal("Average before trigger must be a no-op")
	}
}

func TestEASGDPullsTowardCenterSymmetrically(t *testing.T) {
	p := nn.NewParam("w", tensor.Full(4, 1))
	opt := NewEASGD(0, 0.25) // lr 0 isolates the elastic term
	opt.Step([]*nn.Param{p}) // initializes center at 4
	c := opt.Center(p)
	if c.At(0) != 4 {
		t.Fatalf("center init = %v", c.At(0))
	}
	// Move the worker away, then step: worker pulled back, center pulled
	// forward, by equal amounts.
	p.W.Fill(8)
	p.G.Zero()
	opt.Step([]*nn.Param{p})
	if got := p.W.At(0); math.Abs(float64(got)-7) > 1e-6 {
		t.Fatalf("worker = %v, want 7", got)
	}
	if got := opt.Center(p).At(0); math.Abs(float64(got)-5) > 1e-6 {
		t.Fatalf("center = %v, want 5", got)
	}
}

func TestEASGDConverges(t *testing.T) { converges(t, NewEASGD(0.1, 0.05), 400, 5e-2) }

func TestScaleGrads(t *testing.T) {
	p := nn.NewParam("w", tensor.New(3))
	p.G.Fill(8)
	ScaleGrads([]*nn.Param{p}, 4)
	if p.G.At(0) != 2 {
		t.Fatalf("scaled grad = %v, want 2", p.G.At(0))
	}
	ScaleGrads([]*nn.Param{p}, 1) // no-op
	if p.G.At(0) != 2 {
		t.Fatal("n=1 must be a no-op")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := nn.NewParam("w", tensor.New(4))
	p.G.Fill(3) // norm = 6
	pre := ClipGradNorm([]*nn.Param{p}, 3)
	if math.Abs(pre-6) > 1e-6 {
		t.Fatalf("pre-clip norm %v, want 6", pre)
	}
	if got := p.G.L2Norm(); math.Abs(got-3) > 1e-5 {
		t.Fatalf("post-clip norm %v, want 3", got)
	}
	// Below the threshold: untouched.
	pre2 := ClipGradNorm([]*nn.Param{p}, 10)
	if math.Abs(pre2-3) > 1e-5 || math.Abs(p.G.L2Norm()-3) > 1e-5 {
		t.Fatal("clip must not rescale below threshold")
	}
}

func TestOptimizerStatePerParamIdentity(t *testing.T) {
	// Two parameters of the same shape must keep separate Adam state.
	a := nn.NewParam("a", tensor.Full(0, 2))
	b := nn.NewParam("b", tensor.Full(0, 2))
	opt := NewAdam(0.1)
	a.G.Fill(1)
	b.G.Fill(-1)
	opt.Step([]*nn.Param{a, b})
	if a.W.At(0) >= 0 || b.W.At(0) <= 0 {
		t.Fatal("per-param state crossed between parameters")
	}
}

// TestRowTrackedMatchesDense: on a row-tracked embedding table and its
// untracked twin, clip (with a scale that flips +0 to −0 among others),
// batch-mean scaling and every SGD variant leave W and G bit-identical,
// and the record stays sound for the next batch.
func TestRowTrackedMatchesDense(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name    string
		maxNorm float64
		opt     func() Optimizer
	}{
		{"plain", 0.5, func() Optimizer { return NewSGD(0.3) }},
		{"no-clip", 1e9, func() Optimizer { return NewSGD(0.3) }},
		{"negative-clip", -1, func() Optimizer { return NewSGD(0.3) }},
		{"negzero-clip", negZero, func() Optimizer { return NewSGD(0.3) }},
		{"negative-lr", 0.5, func() Optimizer { return NewSGD(-0.3) }},
		{"momentum", 0.5, func() Optimizer { return &SGD{LR: 0.3, Momentum: 0.9} }},
		{"weight-decay", 0.5, func() Optimizer { return &SGD{LR: 0.3, WeightDecay: 0.1} }},
		{"adam", 0.5, func() Optimizer { return NewAdam(0.3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracked := nn.NewEmbedding(tensor.NewRNG(1), 50, 4).Table
			plain := nn.NewParam(tracked.Name, tracked.W.Clone())
			tracked.W.Data()[7] = float32(negZero) // a −0 that adding +0 would move
			plain.W.Data()[7] = float32(negZero)
			opts := []Optimizer{tc.opt(), tc.opt()}
			for step := 0; step < 4; step++ {
				src := tensor.NewRNG(int64(step)).Normal(0, 1, 3, 4)
				idx := []int{40 - step, 3, 40 - step}
				for v, p := range []*nn.Param{tracked, plain} {
					ps := []*nn.Param{p}
					if v == 0 {
						p.ScatterAddGrad(idx, src)
					} else {
						tensor.ScatterAddRows(p.G, idx, src)
					}
					ScaleGrads(ps, 2)
					ClipGradNorm(ps, tc.maxNorm)
					opts[v].Step(ps)
				}
				for what, pair := range map[string][2]*tensor.Tensor{"W": {tracked.W, plain.W}, "G": {tracked.G, plain.G}} {
					for i, w := range pair[1].Data() {
						if g := pair[0].Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
							t.Fatalf("step %d: %s[%d] = %v, dense path %v", step, what, i, g, w)
						}
					}
				}
				nn.ZeroGrads([]*nn.Param{tracked, plain})
			}
		})
	}
}
