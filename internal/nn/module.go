// Package nn provides neural-network layers with explicit forward and
// backward passes over per-micro-batch contexts.
//
// Unlike a global autograd graph, each layer stashes the activations it
// needs for its backward pass in a Context owned by the micro-batch. This
// mirrors how pipeline-parallel stage workers operate (PipeDream, GPipe,
// AvgPipe): the number of live Contexts on a stage IS the activation-stash
// memory that the paper's 1F1B and advance-forward-propagation schedules
// manage. Manual backward passes are verified against internal/autograd
// and finite differences in the package tests.
//
// Data layout convention: sequence tensors are time-major, shaped
// (seqLen*batch, dim) with the block for timestep t contiguous at rows
// [t*batch, (t+1)*batch).
package nn

import (
	"fmt"

	"avgpipe/internal/tensor"
)

// Param is a trainable tensor with its accumulated gradient. Gradients
// accumulate across micro-batches; the training loop scales and clears
// them at optimizer-step boundaries.
//
// An embedding table is row-tracked: a batch writes a few of its rows,
// and the parameter records which (rows.go). Its gradient scatter
// records the rows of G it writes, plain SGD the rows of W it steps, and
// clip, step, zero-grad and the averager's delta then visit only those
// rows wherever that is bit-identical to the dense pass. Other writes
// mark the record dense (MarkDense); every parameter without a record
// takes the dense pass.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor

	rows *rowRecord // nil: not row-tracked
}

// NewParam allocates a parameter around an initialized weight tensor.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape()...)}
}

// ZeroGrad clears the accumulated gradient: on a row-tracked parameter
// only its recorded rows, outside which G is already +0.
func (p *Param) ZeroGrad() {
	if rows, ok := p.GradRows(); ok {
		p.G.ZeroRows(rows)
	} else {
		p.G.Zero()
	}
	if r := p.rows; r != nil {
		r.grad.Clear()
		r.gradDense = false
	}
}

// AddGrad accumulates g into the parameter gradient.
func (p *Param) AddGrad(g *tensor.Tensor) {
	p.G.AddInPlace(g)
	if r := p.rows; r != nil {
		r.gradDense = true
	}
}

// NumElements returns the parameter's element count.
func (p *Param) NumElements() int { return p.W.Size() }

// Context stores the activations one micro-batch stashed during its
// forward pass, to be consumed (LIFO) by the matching backward pass.
// A fresh Context is created per micro-batch per stage; holding K of them
// live is exactly the "stash activations of K micro-batches" memory cost
// the paper analyzes.
type Context struct {
	stack []any
}

// NewContext returns an empty activation stash.
func NewContext() *Context { return &Context{} }

// Push stashes a value for the backward pass.
func (c *Context) Push(v any) { c.stack = append(c.stack, v) }

// Pop retrieves the most recently stashed value.
func (c *Context) Pop() any {
	if len(c.stack) == 0 {
		panic("nn: Context.Pop on empty stash (backward without matching forward?)")
	}
	v := c.stack[len(c.stack)-1]
	c.stack[len(c.stack)-1] = nil
	c.stack = c.stack[:len(c.stack)-1]
	return v
}

// Len reports how many values are stashed.
func (c *Context) Len() int { return len(c.stack) }

// Bytes estimates the stash footprint, counting float32 tensor payloads.
func (c *Context) Bytes() int {
	var b int
	for _, v := range c.stack {
		if t, ok := v.(*tensor.Tensor); ok {
			b += 4 * t.Size()
		}
	}
	return b
}

// Module is a differentiable layer. Forward consumes an input and stashes
// whatever its Backward needs into ctx; Backward consumes the stash in
// reverse order, accumulates parameter gradients, and returns the input
// gradient. train toggles stochastic layers (dropout).
type Module interface {
	Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Sequential chains modules; its stash discipline composes because
// backward visits children in exact reverse order of forward.
type Sequential struct {
	Layers []Module
}

// NewSequential builds a sequential container over the given layers.
func NewSequential(layers ...Module) *Sequential { return &Sequential{Layers: layers} }

// Forward runs each layer in order.
func (s *Sequential) Forward(ctx *Context, x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(ctx, x, train)
	}
	return x
}

// Backward runs each layer's backward in reverse order. Intermediate
// gradients are arena-backed and have no other holders once the layer
// below consumed them, so they are released here; the caller-owned dy and
// identity passthroughs (a layer returning its input, e.g. eval-mode
// Dropout) are guarded by pointer equality.
func (s *Sequential) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	d := dy
	for i := len(s.Layers) - 1; i >= 0; i-- {
		next := s.Layers[i].Backward(ctx, d)
		if d != nil && d != dy && next != d {
			d.Release()
		}
		d = next
	}
	return d
}

// Params returns all parameters of all layers, in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Slice returns a Sequential over layers [lo, hi), sharing the underlying
// layer objects. Pipeline partitioning uses this to form stages.
func (s *Sequential) Slice(lo, hi int) *Sequential {
	if lo < 0 || hi > len(s.Layers) || lo > hi {
		panic(fmt.Sprintf("nn: Slice [%d,%d) out of range for %d layers", lo, hi, len(s.Layers)))
	}
	return &Sequential{Layers: s.Layers[lo:hi]}
}

// NumParams returns the total element count across params.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.NumElements()
	}
	return n
}

// ZeroGrads clears every gradient in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}
