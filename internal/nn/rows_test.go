package nn

import (
	"slices"
	"testing"

	"avgpipe/internal/tensor"
)

// TestRowRecord walks one table through the record's states: scattered
// rows come back ascending and once each; ZeroGrad clears exactly them;
// AddGrad and MarkDense make the gradient dense until the next ZeroGrad;
// steps recorded after SyncRows are proven only against that baseline
// and state, and a dense step or MarkDense withdraws the proof.
func TestRowRecord(t *testing.T) {
	p := NewEmbedding(tensor.NewRNG(1), 130, 2).Table
	src := tensor.Full(1, 4, 2)
	p.ScatterAddGrad([]int{129, 3, 64, 3}, src)
	rows, ok := p.GradRows()
	if !ok || !slices.Equal(rows, []int{3, 64, 129}) {
		t.Fatalf("GradRows = %v, %v", rows, ok)
	}
	p.ZeroGrad()
	if rows, ok := p.GradRows(); !ok || len(rows) != 0 || p.G.L2Norm() != 0 {
		t.Fatalf("after ZeroGrad: rows %v, %v, norm %v", rows, ok, p.G.L2Norm())
	}
	p.AddGrad(tensor.Full(1, 130, 2))
	if _, ok := p.GradRows(); ok {
		t.Fatal("AddGrad left the record proving rows")
	}
	p.ZeroGrad()
	if _, ok := p.GradRows(); !ok || p.G.L2Norm() != 0 {
		t.Fatal("ZeroGrad after a dense write did not clear G and restore the record")
	}

	base := p.W.Clone()
	if _, ok := p.SteppedRows(base, 1); ok {
		t.Fatal("proof before any sync")
	}
	p.SyncRows(base, 1)
	if _, ok := p.SteppedRows(base, 1); ok {
		t.Fatal("proof before any recorded step")
	}
	p.RecordStep([]int{9, 2}, true)
	p.RecordStep([]int{2, 5}, true)
	if rows, ok := p.SteppedRows(base, 1); !ok || !slices.Equal(rows, []int{2, 5, 9}) {
		t.Fatalf("SteppedRows = %v, %v", rows, ok)
	}
	if _, ok := p.SteppedRows(base, 2); ok {
		t.Fatal("proof for another state of the baseline")
	}
	if _, ok := p.SteppedRows(p.W, 1); ok {
		t.Fatal("proof against another baseline")
	}
	p.SyncRows(base, 3)
	if _, ok := p.SteppedRows(base, 3); ok {
		t.Fatal("SyncRows kept the previous steps")
	}
	p.RecordStep([]int{1}, true)
	p.RecordStep(nil, false)
	if _, ok := p.SteppedRows(base, 3); ok {
		t.Fatal("a dense step left a proof")
	}
	p.SyncRows(base, 4)
	p.RecordStep([]int{1}, true)
	p.MarkDense()
	if _, ok := p.SteppedRows(base, 4); ok {
		t.Fatal("MarkDense left a proof")
	}

	plain := NewParam("plain", tensor.New(4, 2))
	plain.ScatterAddGrad([]int{1}, tensor.Full(1, 1, 2))
	if _, ok := plain.GradRows(); ok {
		t.Fatal("an untracked parameter claims a record")
	}
	plain.ZeroGrad()
	if plain.G.L2Norm() != 0 {
		t.Fatal("ZeroGrad left an untracked gradient")
	}
}
