package tensor

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Dims() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad dims %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestScalarAndFull(t *testing.T) {
	s := Scalar(3.5)
	if s.Size() != 1 || s.Data()[0] != 3.5 {
		t.Fatalf("Scalar broken: %v", s)
	}
	f := Full(2, 3, 3)
	if f.Sum() != 18 {
		t.Fatalf("Full sum = %v, want 18", f.Sum())
	}
}

func TestAtSetOffsets(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if x.Data()[5] != 7 {
		t.Fatal("row-major offset wrong")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeViewSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape must share storage")
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestSliceRowsAndRow(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	s := x.SliceRows(1, 3)
	if s.Dim(0) != 2 || s.At(0, 0) != 3 {
		t.Fatalf("SliceRows wrong: %v", s)
	}
	s.Set(-1, 0, 0)
	if x.At(1, 0) != -1 {
		t.Fatal("SliceRows must be a view")
	}
	r := x.Row(2)
	if r.Dim(0) != 2 || r.At(1) != 6 {
		t.Fatalf("Row wrong: %v", r)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b).Sum(); got != 20 {
		t.Fatalf("Add sum = %v", got)
	}
	if got := Sub(a, b).At(0, 0); got != -3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Sum(); got != 4+6+6+4 {
		t.Fatalf("Mul sum = %v", got)
	}
	if got := Neg(a).Sum(); got != -10 {
		t.Fatalf("Neg sum = %v", got)
	}
	if got := AddScalar(a, 1).Sum(); got != 14 {
		t.Fatalf("AddScalar sum = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 20}, 2)
	a.AddInPlace(b)
	if a.At(1) != 22 {
		t.Fatal("AddInPlace")
	}
	a.SubInPlace(b)
	if a.At(1) != 2 {
		t.Fatal("SubInPlace")
	}
	a.MulInPlace(b)
	if a.At(0) != 10 {
		t.Fatal("MulInPlace")
	}
	a.ScaleInPlace(0.5)
	if a.At(0) != 5 {
		t.Fatal("ScaleInPlace")
	}
	a.AxpyInPlace(2, b)
	if a.At(0) != 25 {
		t.Fatal("AxpyInPlace")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2), New(3))
}

func TestActivations(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 1}, 3)
	r := ReLU(x)
	if r.At(0) != 0 || r.At(2) != 1 {
		t.Fatalf("ReLU: %v", r)
	}
	s := Sigmoid(Scalar(0))
	if !almostEq(float64(s.At()), 0.5, 1e-6) {
		t.Fatalf("Sigmoid(0) = %v", s.At())
	}
	th := Tanh(Scalar(0.5))
	if !almostEq(float64(th.At()), math.Tanh(0.5), 1e-6) {
		t.Fatalf("Tanh = %v", th.At())
	}
	if !almostEq(float64(Exp(Scalar(1)).At()), math.E, 1e-5) {
		t.Fatal("Exp")
	}
	if !almostEq(float64(Log(Scalar(math.E)).At()), 1, 1e-5) {
		t.Fatal("Log")
	}
}

func TestRowVectorBroadcast(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float32{10, 20}, 2)
	a := AddRowVector(m, v)
	if a.At(0, 0) != 11 || a.At(1, 1) != 24 {
		t.Fatalf("AddRowVector: %v", a)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	g := NewRNG(1)
	a := g.Normal(0, 1, 5, 7)
	b := g.Normal(0, 1, 7, 4)
	ref := MatMul(a, b)
	viaTB := MatMulTransB(a, Transpose2D(b))
	viaTA := MatMulTransA(Transpose2D(a), b)
	for i := range ref.Data() {
		if !almostEq(float64(ref.Data()[i]), float64(viaTB.Data()[i]), 1e-4) {
			t.Fatalf("MatMulTransB mismatch at %d", i)
		}
		if !almostEq(float64(ref.Data()[i]), float64(viaTA.Data()[i]), 1e-4) {
			t.Fatalf("MatMulTransA mismatch at %d", i)
		}
	}
}

func TestMatVecAndOuter(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float32{1, 1}, 2)
	mv := MatVec(m, v)
	if mv.At(0) != 3 || mv.At(1) != 7 {
		t.Fatalf("MatVec: %v", mv)
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose2D(a)
	if at.Dim(0) != 3 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose2D: %v", at)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{-1, 4, 2, -3}, 2, 2)
	if x.Sum() != 2 {
		t.Fatal("Sum")
	}
	if x.Mean() != 0.5 {
		t.Fatal("Mean")
	}
	if x.Max() != 4 || x.Min() != -3 {
		t.Fatal("Max/Min")
	}
	if !almostEq(x.L2Norm(), math.Sqrt(1+16+4+9), 1e-6) {
		t.Fatal("L2Norm")
	}
	if Dot(x, x) != 30 {
		t.Fatal("Dot")
	}
	sr := SumRows(x)
	if sr.At(0) != 1 || sr.At(1) != 1 {
		t.Fatalf("SumRows: %v", sr)
	}
	am := ArgMaxRows(x)
	if am[0] != 1 || am[1] != 0 {
		t.Fatalf("ArgMaxRows: %v", am)
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 1000, 1001, 1002}, 2, 3)
	s := SoftmaxRows(x)
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			sum += float64(s.At(i, j))
		}
		if !almostEq(sum, 1, 1e-5) {
			t.Fatalf("softmax row %d sums to %v", i, sum)
		}
	}
	// Shift invariance: both rows are the same logits up to a constant.
	for j := 0; j < 3; j++ {
		if !almostEq(float64(s.At(0, j)), float64(s.At(1, j)), 1e-5) {
			t.Fatal("softmax must be shift invariant")
		}
	}
	ls := LogSoftmaxRows(x)
	for j := 0; j < 3; j++ {
		if !almostEq(float64(ls.At(0, j)), math.Log(float64(s.At(0, j))), 1e-5) {
			t.Fatal("logsoftmax must equal log(softmax)")
		}
	}
}

func TestGatherScatter(t *testing.T) {
	table := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	out := Gather(table, []int{2, 0, 2})
	if out.At(0, 0) != 5 || out.At(1, 1) != 2 || out.At(2, 1) != 6 {
		t.Fatalf("Gather: %v", out)
	}
	grad := New(3, 2)
	ScatterAddRows(grad, []int{2, 0, 2}, Ones(3, 2))
	if grad.At(2, 0) != 2 || grad.At(0, 0) != 1 || grad.At(1, 0) != 0 {
		t.Fatalf("ScatterAddRows must accumulate repeats: %v", grad)
	}
}

func TestHasNaN(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	if x.HasNaN() {
		t.Fatal("clean tensor flagged")
	}
	x.Set(float32(math.NaN()), 0)
	if !x.HasNaN() {
		t.Fatal("NaN not detected")
	}
	y := FromSlice([]float32{float32(math.Inf(1))}, 1)
	if !y.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestRNGInitializers(t *testing.T) {
	g := NewRNG(42)
	u := g.Uniform(-2, 2, 1000)
	if u.Min() < -2 || u.Max() >= 2 {
		t.Fatal("Uniform out of range")
	}
	n := g.Normal(5, 0.1, 10000)
	if !almostEq(n.Mean(), 5, 0.05) {
		t.Fatalf("Normal mean = %v", n.Mean())
	}
	x := g.Xavier(100, 100)
	limit := math.Sqrt(6.0 / 200.0)
	if float64(x.Max()) > limit || float64(x.Min()) < -limit {
		t.Fatal("Xavier out of bounds")
	}
	m := g.Bernoulli(0.5, 10000)
	frac := m.Sum() / 10000
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("Bernoulli fraction = %v", frac)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7).Normal(0, 1, 50)
	b := NewRNG(7).Normal(0, 1, 50)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("same seed must give identical streams")
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	n := 100000
	marks := make([]int32, n)
	ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			marks[i]++
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times", i, m)
		}
	}
	// Degenerate cases must not hang or panic.
	ParallelFor(0, func(lo, hi int) { t.Fatal("body must not run for n=0") })
	ParallelFor(1, func(lo, hi int) {
		if lo != 0 || hi != 1 {
			t.Fatal("bad single range")
		}
	})
}

func BenchmarkMatMul256(b *testing.B) {
	g := NewRNG(1)
	x := g.Normal(0, 1, 256, 256)
	y := g.Normal(0, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}
