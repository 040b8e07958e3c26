// Package optim implements the optimizers the AvgPipe paper exercises.
//
// The elastic-averaging framework (§3) is deliberately decoupled from the
// optimizer: every optimizer here implements the same Optimizer interface
// and can drive a parallel pipeline unchanged. EASGD is also provided as
// the "extended SGD" baseline whose coupling the paper criticizes (§3.1).
package optim

import (
	"math"

	"avgpipe/internal/nn"
	"avgpipe/internal/tensor"
)

// Optimizer applies one update step from the accumulated gradients on the
// given parameters. Implementations hold per-parameter state keyed by
// parameter identity, so a single optimizer instance must stay paired with
// one model replica.
type Optimizer interface {
	// Step consumes p.G for every parameter (already averaged over the
	// batch by the caller) and updates p.W in place.
	Step(params []*nn.Param)
	// Name identifies the optimizer in logs and experiment tables.
	Name() string
}

// SGD is stochastic gradient descent with optional momentum and weight
// decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*nn.Param]*tensor.Tensor
}

// NewSGD returns plain SGD with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step implements Optimizer. Plain SGD (no momentum, no weight decay)
// steps a row-tracked parameter at its recorded gradient rows only and
// records them (nn.Param.RecordStep): outside them G is +0, and the
// dense step would add (−LR)·(+0) = −0 there, which leaves every w but a
// signalling NaN — which no arithmetic produces — as it is. Any other
// step is dense.
func (s *SGD) Step(params []*nn.Param) {
	if s.Momentum != 0 && s.velocity == nil {
		s.velocity = make(map[*nn.Param]*tensor.Tensor)
	}
	alpha := float32(-s.LR)
	plain := s.Momentum == 0 && s.WeightDecay == 0 && alpha < 0 && !math.IsInf(float64(alpha), 0)
	for _, p := range params {
		if rows, ok := p.GradRows(); ok && plain {
			p.W.AxpyRows(alpha, p.G, rows)
			p.RecordStep(rows, true)
			continue
		}
		g := p.G
		if s.WeightDecay != 0 {
			g = g.Clone().AxpyInPlace(float32(s.WeightDecay), p.W)
		}
		if s.Momentum != 0 {
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.W.Shape()...)
				s.velocity[p] = v
			}
			v.ScaleInPlace(float32(s.Momentum))
			v.AddInPlace(g)
			g = v
		}
		p.W.AxpyInPlace(alpha, g)
		p.RecordStep(nil, false)
	}
}

// Adam is the Adam optimizer (Kingma & Ba, 2015) — the optimizer the
// paper's GNMT and BERT workloads use, demonstrating that AvgPipe's
// framework composes with adaptive methods.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*nn.Param]*tensor.Tensor
	v map[*nn.Param]*tensor.Tensor
}

// NewAdam returns Adam with standard defaults (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Param]*tensor.Tensor), v: make(map[*nn.Param]*tensor.Tensor)}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step implements Optimizer.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.W.Shape()...)
			v := tensor.New(p.W.Shape()...)
			a.m[p], a.v[p] = m, v
		}
		v := a.v[p]
		mw, vw, gw, ww := m.Data(), v.Data(), p.G.Data(), p.W.Data()
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		lr, eps := a.LR, a.Eps
		tensor.ParallelFor(len(gw), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				mw[i] = b1*mw[i] + (1-b1)*gw[i]
				vw[i] = b2*vw[i] + (1-b2)*gw[i]*gw[i]
				mhat := float64(mw[i]) / bc1
				vhat := float64(vw[i]) / bc2
				ww[i] -= float32(lr * mhat / (math.Sqrt(vhat) + eps))
			}
		})
	}
}

// AdaGrad is the adaptive-subgradient optimizer (Duchi et al., 2011),
// included as one of the alternative optimizers the framework must
// support (§3.1).
type AdaGrad struct {
	LR, Eps float64

	g2 map[*nn.Param]*tensor.Tensor
}

// NewAdaGrad returns AdaGrad with ε=1e-8.
func NewAdaGrad(lr float64) *AdaGrad {
	return &AdaGrad{LR: lr, Eps: 1e-8, g2: make(map[*nn.Param]*tensor.Tensor)}
}

// Name implements Optimizer.
func (a *AdaGrad) Name() string { return "adagrad" }

// Step implements Optimizer.
func (a *AdaGrad) Step(params []*nn.Param) {
	for _, p := range params {
		acc, ok := a.g2[p]
		if !ok {
			acc = tensor.New(p.W.Shape()...)
			a.g2[p] = acc
		}
		aw, gw, ww := acc.Data(), p.G.Data(), p.W.Data()
		tensor.ParallelFor(len(gw), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				aw[i] += gw[i] * gw[i]
				ww[i] -= float32(a.LR * float64(gw[i]) / (math.Sqrt(float64(aw[i])) + a.Eps))
			}
		})
	}
}

// ASGD is SGD with Polyak-Ruppert iterate averaging (Polyak & Juditsky,
// 1992), the optimizer of the AWD-LSTM workload. After TriggerStep steps
// the running average of iterates becomes the model served by Average().
type ASGD struct {
	LR          float64
	TriggerStep int

	t   int
	avg map[*nn.Param]*tensor.Tensor
}

// NewASGD returns ASGD that starts averaging after trigger steps.
func NewASGD(lr float64, trigger int) *ASGD {
	return &ASGD{LR: lr, TriggerStep: trigger, avg: make(map[*nn.Param]*tensor.Tensor)}
}

// Name implements Optimizer.
func (a *ASGD) Name() string { return "asgd" }

// Step implements Optimizer.
func (a *ASGD) Step(params []*nn.Param) {
	a.t++
	for _, p := range params {
		p.W.AxpyInPlace(float32(-a.LR), p.G)
		if a.t >= a.TriggerStep {
			avg, ok := a.avg[p]
			if !ok {
				avg = p.W.Clone()
				a.avg[p] = avg
				continue
			}
			// Running mean over iterates since the trigger.
			n := float32(a.t - a.TriggerStep + 1)
			avg.ScaleInPlace((n - 1) / n)
			avg.AxpyInPlace(1/n, p.W)
		}
	}
}

// Average writes the averaged iterates into params (a no-op before the
// trigger fires). Call on a clone for evaluation.
func (a *ASGD) Average(params []*nn.Param) {
	for _, p := range params {
		if avg, ok := a.avg[p]; ok {
			p.W.CopyFrom(avg)
			p.MarkDense()
		}
	}
}

// EASGD is elastic-averaging SGD as a *coupled optimizer* (Zhang,
// Choromanska & LeCun, 2015). It is the baseline design §3.1 argues
// against: the elastic pull is welded into an SGD update rule, so it
// cannot be combined with Adam/AdaGrad/ASGD. AvgPipe's framework instead
// layers the elastic pull outside any Optimizer (see internal/core).
type EASGD struct {
	LR    float64
	Alpha float64 // elastic coefficient toward the center

	center map[*nn.Param]*tensor.Tensor
}

// NewEASGD returns EASGD with the given learning rate and elastic
// coefficient.
func NewEASGD(lr, alpha float64) *EASGD {
	return &EASGD{LR: lr, Alpha: alpha, center: make(map[*nn.Param]*tensor.Tensor)}
}

// Name implements Optimizer.
func (e *EASGD) Name() string { return "easgd" }

// Step implements Optimizer: an SGD step plus an elastic pull toward the
// center variable, which moves symmetrically toward the worker.
func (e *EASGD) Step(params []*nn.Param) {
	for _, p := range params {
		c, ok := e.center[p]
		if !ok {
			c = p.W.Clone()
			e.center[p] = c
		}
		diff := tensor.Sub(p.W, c)
		p.W.AxpyInPlace(float32(-e.LR), p.G)
		p.W.AxpyInPlace(float32(-e.Alpha), diff)
		c.AxpyInPlace(float32(e.Alpha), diff)
	}
}

// Center exposes the center variable for a parameter (nil before the
// first step), used by tests.
func (e *EASGD) Center(p *nn.Param) *tensor.Tensor { return e.center[p] }

// ScaleGrads divides accumulated gradients by n, converting a sum over n
// micro-batches into a batch mean. Training loops call this once per
// batch before Step.
func ScaleGrads(params []*nn.Param, n int) {
	if n <= 1 {
		return
	}
	inv := float32(1 / float64(n))
	for _, p := range params {
		scaleGrad(p, inv)
	}
}

// ClipGradNorm rescales gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. Standard for RNN workloads. A
// row-tracked parameter's norm is summed over its recorded gradient rows,
// in the index order L2Norm sums in — the other coefficients are +0, and
// adding their squares to L2Norm's sum changes nothing — and only those
// rows are scaled.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		var n float64
		if rows, ok := p.GradRows(); ok {
			n = p.G.L2NormRows(rows)
		} else {
			n = p.G.L2Norm()
		}
		total += n * n
	}
	total = math.Sqrt(total)
	if total > maxNorm && total > 0 {
		scale := float32(maxNorm / total)
		for _, p := range params {
			scaleGrad(p, scale)
		}
	}
	return total
}

// scaleGrad multiplies p.G by s: on a row-tracked parameter's recorded
// rows only when +0·s is +0 — s finite with its sign bit clear, i.e. its
// bits below +Inf's — so the +0s outside them stay as they are. Any other
// scale leaves the record dense.
func scaleGrad(p *nn.Param, s float32) {
	rows, ok := p.GradRows()
	switch {
	case ok && math.Float32bits(s) < 0x7f800000:
		p.G.ScaleRows(s, rows)
	case ok:
		p.G.ScaleInPlace(s)
		p.MarkDense()
	default:
		p.G.ScaleInPlace(s)
	}
}
