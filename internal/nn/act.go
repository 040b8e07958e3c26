package nn

import "avgpipe/internal/tensor"

// ReLU is the rectified linear activation.
type ReLU struct{}

// Forward applies max(x, 0) and stashes the input sign pattern via x itself.
func (r *ReLU) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	ctx.Push(x)
	return tensor.ReLU(x)
}

// Backward gates dy by the stashed input's positivity.
func (r *ReLU) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	x := ctx.Pop().(*tensor.Tensor)
	out := tensor.Borrow(dy.Shape()...)
	xd, dd, od := x.Data(), dy.Data(), out.Data()
	for i := range xd {
		if xd[i] > 0 {
			od[i] = dd[i]
		}
	}
	return out
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{}

// Forward applies tanh and stashes the output (its derivative is 1-y²).
func (a *Tanh) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.Tanh(x)
	ctx.Push(y)
	return y
}

// Backward multiplies dy by 1 - y².
func (a *Tanh) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	y := ctx.Pop().(*tensor.Tensor)
	d := tensor.Apply(y, func(v float32) float32 { return 1 - v*v })
	return tensor.Mul(dy, d)
}

// Params returns nil; Tanh has no parameters.
func (a *Tanh) Params() []*Param { return nil }

// Sigmoid is the logistic activation.
type Sigmoid struct{}

// Forward applies the logistic function and stashes the output.
func (a *Sigmoid) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.Sigmoid(x)
	ctx.Push(y)
	return y
}

// Backward multiplies dy by y(1-y).
func (a *Sigmoid) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	y := ctx.Pop().(*tensor.Tensor)
	d := tensor.Apply(y, func(v float32) float32 { return v * (1 - v) })
	return tensor.Mul(dy, d)
}

// Params returns nil; Sigmoid has no parameters.
func (a *Sigmoid) Params() []*Param { return nil }

// GELU is the Gaussian error linear unit (tanh approximation), the
// activation used in BERT's feed-forward blocks. Its value and derivative
// are tensor.Gelu32 and tensor.GeluDeriv32, computed through the verified
// kernels GeluInto and GeluDerivInto.
type GELU struct{}

// Forward applies GELU and stashes the input.
func (a *GELU) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	ctx.Push(x)
	y := tensor.Borrow(x.Shape()...)
	tensor.GeluInto(y.Data(), x.Data())
	return y
}

// Backward multiplies dy by GELU's derivative at the stashed x.
func (a *GELU) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	x := ctx.Pop().(*tensor.Tensor)
	d := tensor.Borrow(x.Shape()...)
	tensor.GeluDerivInto(d.Data(), x.Data())
	dx := tensor.Mul(dy, d)
	d.Release()
	return dx
}

// Params returns nil; GELU has no parameters.
func (a *GELU) Params() []*Param { return nil }

// Dropout zeroes each activation independently with probability P during
// training, scaling survivors by 1/(1-P) (inverted dropout). In eval mode
// it is the identity.
type Dropout struct {
	P   float64
	rng *tensor.RNG
}

// NewDropout constructs a dropout layer with its own deterministic RNG.
func NewDropout(rng *tensor.RNG, p float64) *Dropout { return &Dropout{P: p, rng: rng} }

// Forward samples a keep mask (stashed for backward) in training mode.
func (d *Dropout) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P <= 0 {
		ctx.Push((*tensor.Tensor)(nil))
		return x
	}
	keep := d.rng.Bernoulli(1-d.P, x.Shape()...)
	keep.ScaleInPlace(float32(1 / (1 - d.P)))
	ctx.Push(keep)
	return tensor.Mul(x, keep)
}

// Backward applies the stashed mask to dy (identity in eval mode).
func (d *Dropout) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	keep := ctx.Pop().(*tensor.Tensor)
	if keep == nil {
		return dy
	}
	return tensor.Mul(dy, keep)
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
