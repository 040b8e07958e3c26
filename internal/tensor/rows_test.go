package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// someRows draws an ascending set of distinct rows of n, in stretches of
// consecutive rows, possibly empty.
func someRows(r *rand.Rand, n int) []int {
	var rows []int
	for i := r.Intn(4); i < n; {
		run := 1 + r.Intn(4)
		for j := i; j < min(i+run, n); j++ {
			rows = append(rows, j)
		}
		i += run + 1 + r.Intn(6)
	}
	return rows
}

// rowShapes are (rows, width) pairs: narrow rows, and wide ones whose
// ranges cross PackRuns' chunks.
var rowShapes = [][2]int{{1, 1}, {9, 3}, {40, 8}, {33, 17}, {12, 700}}

// TestPropSubRowsMatchesSub: where w equals s bit for bit and is finite
// outside rows, SubRows returns exactly Sub's Runs — runs continuing
// across row and chunk boundaries included — whatever rows hold (±0,
// ±Inf, unchanged coefficients).
func TestPropSubRowsMatchesSub(t *testing.T) {
	prop := func(seed int64, shape uint8) bool {
		r := rand.New(rand.NewSource(seed))
		sh := rowShapes[int(shape)%len(rowShapes)]
		s := New(sh[0], sh[1])
		for i := range s.data {
			s.data[i] = float32(r.NormFloat64())
			if r.Intn(7) == 0 {
				s.data[i] = specials[r.Intn(5)] // ±0 and denormals: finite
			}
		}
		w := s.Clone()
		rows := someRows(r, sh[0])
		for _, row := range rows {
			for j := row * sh[1]; j < (row+1)*sh[1]; j++ {
				switch r.Intn(4) {
				case 0: // unchanged: delta +0
				case 1:
					w.data[j] = specials[r.Intn(len(specials))]
				default:
					w.data[j] += float32(r.NormFloat64())
				}
			}
		}
		var b RunBuilder
		got, want := b.SubRows(w, s, rows), b.Sub(w, s)
		if !slices.Equal(got.Spans, want.Spans) {
			t.Logf("shape %v rows %v: spans %v, want %v", sh, rows, got.Spans, want.Spans)
			return false
		}
		if i, ok := bitsEqual(got.Vals, want.Vals); !ok {
			t.Logf("shape %v: value %d differs", sh, i)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropRowPassesMatchDense: on a tensor that is ±0 outside rows,
// L2NormRows equals L2Norm; ScaleRows, AxpyRows and ZeroRows equal the
// dense passes on rows and leave the rest as the dense pass would — for
// a scale with a clear sign bit and a finite negative axpy coefficient,
// the exactness conditions the callers check.
func TestPropRowPassesMatchDense(t *testing.T) {
	prop := func(seed int64, shape uint8) bool {
		r := rand.New(rand.NewSource(seed))
		sh := rowShapes[int(shape)%len(rowShapes)]
		rows := someRows(r, sh[0])
		g, w := New(sh[0], sh[1]), New(sh[0], sh[1])
		for i := range w.data {
			w.data[i] = float32(r.NormFloat64())
			if r.Intn(9) == 0 {
				w.data[i] = specials[r.Intn(len(specials))]
			}
		}
		for _, row := range rows {
			for j := row * sh[1]; j < (row+1)*sh[1]; j++ {
				g.data[j] = float32(r.NormFloat64())
				if r.Intn(6) == 0 {
					g.data[j] = specials[r.Intn(len(specials))]
				}
			}
		}
		if a, b := g.L2NormRows(rows), g.L2Norm(); math.Float64bits(a) != math.Float64bits(b) {
			t.Logf("shape %v: L2NormRows %v, L2Norm %v", sh, a, b)
			return false
		}
		scale := float32(r.Float64())
		gr, gd := g.Clone(), g.Clone()
		gr.ScaleRows(scale, rows)
		gd.ScaleInPlace(scale)
		wr, wd := w.Clone(), w.Clone()
		alpha := -float32(r.Float64()) - 0.25
		wr.AxpyRows(alpha, gd, rows)
		wd.AxpyInPlace(alpha, gd)
		zr := gd.Clone()
		zr.ZeroRows(rows)
		for _, c := range [][2]*Tensor{{gr, gd}, {wr, wd}, {zr, New(sh[0], sh[1])}} {
			if i, ok := bitsEqual(c[0].data, c[1].data); !ok {
				t.Logf("shape %v: coefficient %d = %v, dense %v", sh, i, c[0].data[i], c[1].data[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRowPassesNeedRows: the row passes visit only rows; the rest stay.
func TestRowPassesNeedRows(t *testing.T) {
	x := Full(3, 4, 2)
	x.ScaleRows(2, []int{1, 2})
	x.ZeroRows([]int{3})
	want := []float32{3, 3, 6, 6, 6, 6, 0, 0}
	if _, ok := bitsEqual(x.data, want); !ok {
		t.Fatalf("got %v, want %v", x.data, want)
	}
}

// TestPropDiluteRowsMatchesDilute: DiluteRows equals Dilute on the
// listed rows, leaves every other row of w and snap untouched, and lists
// as changed exactly the visited rows whose bits moved — at α = 1/2, 1/3
// and 1/4, on tables run to their fixed point and then disturbed. On
// amd64, TestPropDiluteRowsMatchesDiluteGoLayer repeats it on the Go
// loops.
func TestPropDiluteRowsMatchesDilute(t *testing.T) { checkDiluteRowsMatchesDilute(t) }

func checkDiluteRowsMatchesDilute(t *testing.T) {
	t.Helper()
	prop := func(seed int64, shape uint8) bool {
		r := rand.New(rand.NewSource(seed))
		sh := rowShapes[int(shape)%len(rowShapes)]
		alpha := []float32{1.0 / 2, 1.0 / 3, 1.0 / 4}[r.Intn(3)]
		w, ref, snap := New(sh[0], sh[1]), New(sh[0], sh[1]), New(sh[0], sh[1])
		for i := range w.data {
			w.data[i], ref.data[i], snap.data[i] = float32(r.NormFloat64()), float32(r.NormFloat64()), float32(r.NormFloat64())
			if r.Intn(9) == 0 {
				w.data[i] = specials[r.Intn(5)] // ±0 and denormals: finite
			}
		}
		if r.Intn(2) == 0 { // settle every row, then move a few
			for range 100 {
				Dilute(alpha, w, ref, New(sh[0], sh[1]))
			}
			for range 1 + r.Intn(4) {
				i := r.Intn(len(w.data))
				[]*Tensor{w, ref}[r.Intn(2)].data[i] = float32(r.NormFloat64())
			}
		}
		rows := someRows(r, sh[0])
		if r.Intn(5) == 0 {
			rows = nil // every row
		}
		wd, sd := w.Clone(), snap.Clone()
		denseFinite := Dilute(alpha, wd, ref, sd)
		wr, sr := w.Clone(), snap.Clone()
		changed := NewRowSet(sh[0])
		finite := DiluteRows(alpha, wr, ref, sr, rows, &changed)
		visited := func(row int) bool {
			_, in := slices.BinarySearch(rows, row)
			return rows == nil || in
		}
		var wantChanged []int
		for row := 0; row < sh[0]; row++ {
			lo, hi := row*sh[1], (row+1)*sh[1]
			want := [2]*Tensor{w, snap}
			if visited(row) {
				want = [2]*Tensor{wd, sd}
				if _, same := bitsEqual(wd.data[lo:hi], w.data[lo:hi]); !same {
					wantChanged = append(wantChanged, row)
				}
			}
			for v, got := range []*Tensor{wr, sr} {
				if i, ok := bitsEqual(got.data[lo:hi], want[v].data[lo:hi]); !ok {
					t.Logf("shape %v α %v row %d (visited %v): tensor %d coefficient %d = %v, want %v",
						sh, alpha, row, visited(row), v, i, got.data[lo+i], want[v].data[lo+i])
					return false
				}
			}
		}
		if got := changed.Ascending(); !slices.Equal(got, wantChanged) {
			t.Logf("shape %v α %v: changed %v, want %v", sh, alpha, got, wantChanged)
			return false
		}
		return finite == denseFinite || rows != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRowSet: members come back ascending, once each, however they were
// added, and the set empties.
func TestRowSet(t *testing.T) {
	s := NewRowSet(200)
	for _, r := range []int{5, 3, 130, 5, 64, 0, 199, 63} {
		s.Add(r)
	}
	want := []int{0, 3, 5, 63, 64, 130, 199}
	if got := s.Ascending(); !slices.Equal(got, want) || s.Len() != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	s.Clear()
	s.AddCovered(&Runs{Spans: []Span{{Start: 7, Len: 2}, {Start: 9, Len: 12}, {Start: 40, Len: 1}}}, 10)
	if got := s.Ascending(); !slices.Equal(got, []int{0, 1, 2, 4}) {
		t.Fatalf("covered rows %v, want [0 1 2 4]", got)
	}
}
