package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sparseTensor is a tensor of n coefficients that is mostly +0, with
// runs of normals, ±0, ±Inf and denormals planted at random — runs that
// cross the kernels' 8-blocks and, for large n, PackRuns' chunks.
func sparseTensor(r *rand.Rand, n int) *Tensor {
	t := New(n)
	for i := 0; i < n; {
		run := 1 + r.Intn(40)
		if r.Intn(3) == 0 {
			for j := i; j < min(i+run, n); j++ {
				if r.Intn(6) == 0 {
					t.data[j] = specials[r.Intn(len(specials))]
				} else {
					t.data[j] = float32(r.NormFloat64())
				}
			}
		}
		i += run + r.Intn(200)
	}
	return t
}

func bitsEqual(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// checkCanonical asserts the run-form invariants: spans ascending, each
// non-empty and separated from the next by at least one +0, values
// counted exactly, and no value +0.
func checkCanonical(t *testing.T, r *Runs) {
	t.Helper()
	total := 0
	for i, sp := range r.Spans {
		if sp.Len == 0 || int(sp.Start+sp.Len) > r.Size() {
			t.Fatalf("span %d %v out of range for %d coefficients", i, sp, r.Size())
		}
		if i > 0 && sp.Start <= r.Spans[i-1].Start+r.Spans[i-1].Len {
			t.Fatalf("span %d %v does not leave a gap after %v", i, sp, r.Spans[i-1])
		}
		total += int(sp.Len)
	}
	if total != len(r.Vals) {
		t.Fatalf("spans cover %d values, have %d", total, len(r.Vals))
	}
	for i, v := range r.Vals {
		if math.Float32bits(v) == 0 {
			t.Fatalf("value %d is +0", i)
		}
	}
}

// TestPropRunsExact: the run form is canonical and exact — RunsOf and
// RunBuilder.Sub expand back to the dense tensor and to Sub bit for bit —
// and AxpyRuns equals AxpyInPlace bit for bit on a target holding −0,
// with the gap pass on exactly when ZeroAddMoves says it is needed.
func TestPropRunsExact(t *testing.T) {
	var b RunBuilder // reused across cases, as the averager reuses it
	prop := func(seed int64, size uint16, negZeros bool) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size % 6000)
		x := sparseTensor(r, n)
		rx := RunsOf(x)
		checkCanonical(t, rx)
		if i, ok := bitsEqual(rx.Dense().data, x.data); !ok {
			t.Logf("RunsOf n=%d: element %d differs", n, i)
			return false
		}

		w, s := sparseTensor(r, n), sparseTensor(r, n)
		for i := range w.data {
			if r.Intn(2) == 0 {
				w.data[i] = s.data[i] // an untouched coefficient: d = +0
			}
		}
		d := b.Sub(w, s)
		checkCanonical(t, d)
		if i, ok := bitsEqual(d.Dense().data, Sub(w, s).data); !ok {
			t.Logf("Sub n=%d: element %d differs", n, i)
			return false
		}

		ref := sparseTensor(r, n)
		for i := range ref.data {
			if negZeros && r.Intn(5) == 0 {
				ref.data[i] = float32(math.Copysign(0, -1))
			}
		}
		want := ref.Clone()
		want.AxpyInPlace(0.5, d.Dense())
		ref.AxpyRuns(0.5, d, ref.ZeroAddMoves())
		if i, ok := bitsEqual(ref.data, want.data); !ok {
			t.Logf("AxpyRuns n=%d: element %d = %#x, want %#x", n, i,
				math.Float32bits(ref.data[i]), math.Float32bits(want.data[i]))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAxpyRunsGapsMatter pins the one case the gap pass exists for: a −0
// in the target under a skipped coefficient becomes +0 on the dense path.
func TestAxpyRunsGapsMatter(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	ref := FromSlice([]float32{negZero, 1, negZero}, 3)
	if !ref.ZeroAddMoves() {
		t.Fatal("ZeroAddMoves missed a −0")
	}
	d := RunsOf(FromSlice([]float32{0, 2, 0}, 3))
	ref.AxpyRuns(1, d, true)
	if got := math.Float32bits(ref.data[0]); got != 0 {
		t.Fatalf("gap coefficient bits %#x, want +0", got)
	}
	if ref.ZeroAddMoves() {
		t.Fatal("ZeroAddMoves still true after the gap pass cleared every −0")
	}
	if FromSlice([]float32{0, 1, float32(math.NaN())}, 3).ZeroAddMoves() {
		t.Fatal("ZeroAddMoves flagged +0 or a quiet NaN")
	}
	if !FromSlice([]float32{math.Float32frombits(0x7f800001)}, 1).ZeroAddMoves() {
		t.Fatal("ZeroAddMoves missed a signalling NaN")
	}
}

// TestL2NormSkipsZerosExactly: the zero-skipping L2Norm equals the plain
// float64 chain bit for bit, specials included.
func TestL2NormSkipsZerosExactly(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000, 4099} {
		x := sparseTensor(r, n)
		for _, v := range []float32{float32(math.Inf(1)), float32(math.NaN())} {
			y := x.Clone()
			if n > 0 {
				y.data[r.Intn(n)] = v
			}
			for _, tt := range []*Tensor{x, y} {
				var s float64
				for _, v := range tt.data {
					s += float64(v) * float64(v)
				}
				want, got := math.Sqrt(s), tt.L2Norm()
				if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
					t.Fatalf("n=%d: L2Norm %v, want %v", n, got, want)
				}
			}
		}
	}
}

// TestDiluteMatchesComposed: the fused Dilute equals the scale, axpy and
// copy it replaces, bit for bit, across the parallel-for split.
func TestDiluteMatchesComposed(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	for _, n := range []int{0, 5, 8, 131, 1 << 21} {
		w := FromSlice(specialSlice(r, n, 0, 7), n)
		ref := FromSlice(specialSlice(r, n, 0, 7), n)
		want := w.Clone()
		want.ScaleInPlace(1 - 0.3)
		want.AxpyInPlace(0.3, ref)
		snap := New(n)
		Dilute(0.3, w, ref, snap)
		for _, got := range []*Tensor{w, snap} {
			if i, ok := sameBits(got.data, want.data); !ok {
				t.Fatalf("n=%d: element %d = %v, want %v", n, i, got.data[i], want.data[i])
			}
		}
	}
}
