package core

import (
	"avgpipe/internal/nn"
	"avgpipe/internal/tensor"
)

// rowSettle is what pipeline p's Dilute of one row-tracked parameter
// keeps between calls, so that the next call visits only the rows whose
// dilution can still change a bit (DESIGN.md §10). A row is settled when
// its last dilution wrote back the bits it read, no step has written W's
// row since, and no applied round has covered ref's row since: then the
// kernel, given the same inputs, would write the same outputs into W and
// the snapshot, and skipping it is exact. The parameter's record proves
// the second condition (nn.Param.SteppedRows), and with it that the last
// pass ran on this snapshot at the current generation and was finite;
// changed and touched hold the exceptions to the first and the third.
type rowSettle struct {
	changed tensor.RowSet // rows the last pass changed
	// touched holds the ref rows applied rounds covered since the last
	// pass, and all records a round that touched every row; both are
	// written by applyRound under Averager.mu.
	touched tensor.RowSet
	all     bool
	visit   tensor.RowSet // scratch: the rows this pass visits
}

func newRowSettle(rows int) *rowSettle {
	return &rowSettle{changed: tensor.NewRowSet(rows), touched: tensor.NewRowSet(rows),
		visit: tensor.NewRowSet(rows)}
}

// touch records that an applied round added d to ref, a table of width
// coefficients per row — to every coefficient when moves is set (see
// tensor.AxpyRuns), else to those d's spans cover.
func (s *rowSettle) touch(d *tensor.Runs, moves bool, width int) {
	if moves {
		s.all = true
	} else if !s.all {
		s.touched.AddCovered(d, width)
	}
}

// dilute dilutes pr's W toward ref, writing snap, over the rows that are
// not settled — or over every row, which reseeds the record, when pr's
// record proves nothing about W since the last pass (an optimizer that
// records no rows, a dense write, a new snapshot generation, a
// non-finite last pass, or no last pass) or a round touched all of ref.
// It returns whether every value written is finite and how many rows it
// visited.
func (s *rowSettle) dilute(alpha float32, pr *nn.Param, ref, snap *tensor.Tensor, gen uint64) (finite bool, visited int) {
	stepped, sparse := pr.SteppedRows(snap, gen)
	sparse = sparse && !s.all
	if sparse {
		s.visit.Clear()
		s.visit.AddSet(&s.changed)
		for _, r := range stepped {
			s.visit.Add(r)
		}
		s.visit.AddSet(&s.touched)
	}
	s.changed.Clear()
	s.touched.Clear()
	s.all = false
	if !sparse {
		return tensor.DiluteRows(alpha, pr.W, ref, snap, nil, &s.changed), pr.W.Dim(0)
	}
	rows := s.visit.Ascending()
	if len(rows) == 0 { // nothing to visit; the last pass was finite
		return true, 0
	}
	return tensor.DiluteRows(alpha, pr.W, ref, snap, rows, &s.changed), len(rows)
}
