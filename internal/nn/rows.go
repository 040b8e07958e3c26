package nn

import "avgpipe/internal/tensor"

// rowRecord is what a row-tracked parameter knows about where its
// tensors can differ from a known state, one row at a time:
//
//   - grad: G is +0 outside these rows (unless gradDense). ZeroGrad
//     empties it, the gradient scatter adds to it, and any other write
//     of G sets gradDense until the next ZeroGrad.
//   - step: since SyncRows(base, gen), W has been written only at these
//     rows, all by recording optimizer steps. Any other write of W drops
//     base, and the record proves nothing until the next SyncRows.
//
// The record is kept by whoever writes the tensors: one stage's ops
// during a batch, then the training loop's clip, step, zero-grad and
// averaging calls, each ordered after the last.
type rowRecord struct {
	grad      tensor.RowSet
	gradDense bool

	step    tensor.RowSet
	base    *tensor.Tensor // nil: W is not known to equal any baseline
	gen     uint64
	stepped bool // a recording step ran since SyncRows
}

// trackRows makes p row-tracked. Its G must be +0 everywhere.
func (p *Param) trackRows() *Param {
	n := p.W.Dim(0)
	p.rows = &rowRecord{grad: tensor.NewRowSet(n), step: tensor.NewRowSet(n)}
	return p
}

// RowTracked reports whether p keeps a row record.
func (p *Param) RowTracked() bool { return p.rows != nil }

// ScatterAddGrad adds each row of src into G at row idx[i] (see
// tensor.ScatterAddRows) and, on a row-tracked parameter, records the
// rows — before writing them, so an aborted batch leaves nothing
// unrecorded for ZeroGrad.
func (p *Param) ScatterAddGrad(idx []int, src *tensor.Tensor) {
	if r := p.rows; r != nil && !r.gradDense {
		for _, i := range idx {
			r.grad.Add(i)
		}
	}
	tensor.ScatterAddRows(p.G, idx, src)
}

// GradRows returns, in ascending order, the rows outside which G is +0,
// and true — or false when p is not row-tracked or G was written
// without a record since the last ZeroGrad. The slice is p's; read it
// before G's next write.
func (p *Param) GradRows() ([]int, bool) {
	if r := p.rows; r != nil && !r.gradDense {
		return r.grad.Ascending(), true
	}
	return nil, false
}

// MarkDense tells p that its W or G was written other than through its
// own methods and the optimizers' steps: its record proves nothing about
// G until the next ZeroGrad, nor about W until the next SyncRows. Code
// that writes a parameter's tensors directly while it trains calls it.
func (p *Param) MarkDense() {
	if r := p.rows; r != nil {
		r.gradDense = true
		r.base = nil
	}
}

// RecordStep tells p that an optimizer step wrote W at the given rows
// only (sparse), or anywhere (!sparse). A step that writes W without
// calling it leaves any record that an earlier step began unproven, so
// only optimizers that call it on every step may call it at all (plain
// SGD does).
func (p *Param) RecordStep(rows []int, sparse bool) {
	r := p.rows
	if r == nil || r.base == nil {
		return
	}
	if !sparse {
		r.base = nil
		return
	}
	for _, i := range rows {
		r.step.Add(i)
	}
	r.stepped = true
}

// SyncRows records that W now equals base bit for bit, base's owner
// naming its state gen, and starts the record of the rows steps write
// from here. base nil records that W equals no known baseline.
func (p *Param) SyncRows(base *tensor.Tensor, gen uint64) {
	r := p.rows
	if r == nil {
		return
	}
	r.step.Clear()
	r.base, r.gen, r.stepped = base, gen, false
}

// SteppedRows returns, in ascending order, the rows outside which W
// still equals base bit for bit, and true — when p's last SyncRows
// named base in state gen and since then W was written only by steps
// that recorded their rows, at least one of which ran. Otherwise it
// returns false.
func (p *Param) SteppedRows(base *tensor.Tensor, gen uint64) ([]int, bool) {
	r := p.rows
	if r == nil || r.base != base || base == nil || r.gen != gen || !r.stepped {
		return nil, false
	}
	return r.step.Ascending(), true
}
