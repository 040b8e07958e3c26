package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// The proof obligations of the verified activation kernels
// (kernels_amd64.s): SigmoidInto, TanhInto, GeluInto and GeluDerivInto
// return exactly Sigmoid32, Tanh32, Gelu32 and GeluDeriv32, and almost
// every lane takes the vector path. `make exhaustive-act`
// (act_exhaustive_test.go) runs the same comparison over all 2^32 inputs
// and keeps the rejected-input tables in testdata current.

// actDefs lists each verified kernel with its definition, the edge of its
// fast path (fastLimit: actLim32 or actGeluLim32 in the assembly), the
// range whose rejected inputs the testdata tables record (rejectLimit),
// the benchmark inputs sampled for its fast-path share, and the share of
// lanes that may fall back on them and on uniform inputs over the
// rejectLimit range.
var actDefs = []struct {
	name                   string
	act                    Act
	def                    func(float32) float32
	fastLimit, rejectLimit float64
	sample                 string
	maxFallback            float64
}{
	{"sigmoid", ActSigmoid, Sigmoid32, 128, 16, "gnmt-n2-sigmoid.f32", 0.001},
	{"tanh", ActTanh, Tanh32, 128, 16, "gnmt-n2-tanh.f32", 0.001},
	{"gelu", actGELU, Gelu32, 16, 2, "bert-n1-gelu.f32", 0.01},
	{"gelu-deriv", actGELUDeriv, GeluDeriv32, 16, 2, "bert-n1-gelu.f32", 0.01},
}

// TestActKernelsMatchDefinition checks the activation kernels bit for bit
// (NaN payloads included) against their scalar definitions on three input
// sets: every 251st float32 bit pattern (~17M inputs, every exponent); an
// edge table; and every input in [−rejectLimit, rejectLimit] whose lane
// the rounding test rejects — the inputs where the vector value lies
// closest to a float32 rounding boundary, so a kernel that skipped the
// test would round some of them the wrong way.
func TestActKernelsMatchDefinition(t *testing.T) {
	for _, a := range actDefs {
		t.Run(a.name, func(t *testing.T) {
			r := actSweep(a.act, a.def, 251, 0)
			if r.mismatchCount > 0 {
				t.Fatalf("strided sweep: %d of %d inputs differ from the definition, first %#x",
					r.mismatchCount, r.inputs, r.mismatches)
			}
			checkActInputs(t, a.act, a.def, "edge", actEdges(a.fastLimit, a.rejectLimit))

			rejects := readF32(t, "act-rejects-"+a.name+".f32")
			if len(rejects) == 0 {
				t.Fatal("empty rejected-input table")
			}
			checkActInputs(t, a.act, a.def, "rejected", rejects)
			if n := actInto(a.act, make([]float32, len(rejects)), rejects); n != len(rejects) {
				t.Fatalf("the kernel rejects %d of the %d tabled inputs: the table is stale, "+
					"rewrite it with AVGPIPE_WRITE_ACT_REJECTS=1 make exhaustive-act", n, len(rejects))
			}
		})
	}
}

// TestActKernelsFastPathShare: a kernel that always fell back would pass
// every bit check, so all but maxFallback of the lanes must take the
// vector path — on 2^20 uniform inputs over [−rejectLimit, rejectLimit],
// and on inputs sampled from benchmark runs: for sigmoid and tanh,
// gnmt-n2's LSTM (testdata/gnmt-n2-*.f32: every 4099th i, f and o gate
// pre-activation for sigmoid; g pre-activations and cell states for
// tanh); for GELU and its derivative, bert-n1's FF1 pre-activations
// (testdata/bert-n1-gelu.f32, the inputs of both).
func TestActKernelsFastPathShare(t *testing.T) {
	if zeros := make([]float32, 8); actInto(ActSigmoid, zeros, zeros) == len(zeros) {
		t.Skip("no vector kernel on this platform: the scalar definition computes every lane")
	}
	r := rand.New(rand.NewSource(24))
	unit := make([]float32, 1<<20)
	for i := range unit {
		unit[i] = float32(r.Float64()*2 - 1)
	}
	for _, a := range actDefs {
		uniform := make([]float32, len(unit))
		for i, u := range unit {
			uniform[i] = u * float32(a.rejectLimit)
		}
		for _, set := range []struct {
			name string
			in   []float32
		}{
			{fmt.Sprintf("uniform [-%g,%g]", a.rejectLimit, a.rejectLimit), uniform},
			{a.sample, readF32(t, a.sample)},
		} {
			n := actInto(a.act, make([]float32, len(set.in)), set.in)
			t.Logf("%s, %s: %d of %d lanes by the scalar definition", a.name, set.name, n, len(set.in))
			if float64(n) > a.maxFallback*float64(len(set.in)) {
				t.Errorf("%s, %s: %d of %d lanes fell back, over %g%%", a.name, set.name, n, len(set.in), 100*a.maxFallback)
			}
		}
	}
}

// checkActInputs runs the kernel over in at every lane offset (0–7 zeros
// in front), out of place and in place, and requires the definition's bits.
func checkActInputs(t *testing.T, act Act, def func(float32) float32, set string, in []float32) {
	t.Helper()
	for off := 0; off < 8; off++ {
		src := append(make([]float32, off), in...)
		dst := make([]float32, len(src))
		actInto(act, dst, src)
		inPlace := slices.Clone(src)
		actInto(act, inPlace, inPlace)
		for i, x := range src {
			want := math.Float32bits(def(x))
			if got := math.Float32bits(dst[i]); got != want {
				t.Fatalf("%s input %v (%#x), offset %d: got %#x, want %#x", set, x, math.Float32bits(x), off, got, want)
			}
			if got := math.Float32bits(inPlace[i]); got != want {
				t.Fatalf("%s input %v (%#x), offset %d, in place: got %#x, want %#x", set, x, math.Float32bits(x), off, got, want)
			}
		}
	}
}

// actEdges lists the inputs the kernels' special cases turn on, with the
// three float32 neighbours on each side of every finite non-zero one: ±0,
// ±Inf, quiet and signalling NaNs with payloads and either sign,
// subnormals, the normal range's ends, the fast path's range edge, the
// points where the reduction's k first becomes ±1, math.Tanh's branch point,
// and the saturation points — where Sigmoid32 reaches 1, turns subnormal
// and reaches 0, and where Tanh32 reaches 1.
func actEdges(fastLimit, rejectLimit float64) []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, 0x7f800000, 0xff800000, // ±0, ±Inf
		0x7fc00000, 0xffc00000, 0x7fc12345, 0xffffffff, // quiet NaNs
		0x7f800001, 0xff800001, 0x7fbfffff, 0x7fa00000, // signalling NaNs
	}
	var base []float32
	for _, b := range bits {
		base = append(base, math.Float32frombits(b))
	}
	sat := func(pred func(float32) bool) float32 {
		// The least positive float32 with pred(x), pred being monotonic.
		lo, hi := uint32(0), uint32(0x7f800000)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if pred(math.Float32frombits(mid)) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return math.Float32frombits(lo)
	}
	for _, v := range []float32{
		math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), // subnormals
		math.Float32frombits(0x00800000), math.MaxFloat32, // normal range
		float32(fastLimit), float32(rejectLimit), 1,
		float32(math.Ln2 / 2), float32(math.Ln2 / 4), 0.625,
		sat(func(x float32) bool { return Sigmoid32(x) == 1 }),
		sat(func(x float32) bool { return Sigmoid32(-x) < math.Float32frombits(0x00800000) }),
		sat(func(x float32) bool { return Sigmoid32(-x) == 0 }),
		sat(func(x float32) bool { return Tanh32(x) == 1 }),
		sat(func(x float32) bool { return Gelu32(-x) == 0 }),
		sat(func(x float32) bool { return GeluDeriv32(-x) == 0 }),
		sat(func(x float32) bool { return GeluDeriv32(x) == 1 }),
	} {
		for _, s := range []float32{v, -v} {
			base = append(base, s)
			up, down := s, s
			for range 3 {
				up = math.Nextafter32(up, float32(math.Inf(1)))
				down = math.Nextafter32(down, float32(math.Inf(-1)))
				base = append(base, up, down)
			}
		}
	}
	return base
}

// actSweepResult is what actSweep saw.
type actSweepResult struct {
	inputs, scalar, mismatchCount uint64
	mismatches                    []uint32 // the first few mismatching inputs' bits
	rejects                       []uint32 // with listRejects, ascending
	rejectRange                   uint64   // inputs in [−rejectLimit, rejectLimit]
}

// actSweep runs the kernel of act over the float32 bit patterns 0,
// stride, 2·stride, … below 2^32, in chunks spread over GOMAXPROCS
// goroutines, and compares every result with def bit for bit. With a
// rejectLimit above 0 it also collects every input in [−rejectLimit,
// rejectLimit] whose lane the rounding test rejected: a block that needed
// the scalar definition is re-run one input at a time (a lone input is a
// tail, padded with zeros the test never rejects).
func actSweep(act Act, def func(float32) float32, stride uint64, rejectLimit float64) actSweepResult {
	const chunk = 1 << 16
	total := (1<<32 + stride - 1) / stride
	var (
		next atomic.Uint64
		mu   sync.Mutex
		res  actSweepResult
		wg   sync.WaitGroup
	)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, dst := make([]float32, chunk), make([]float32, chunk)
			var one [1]float32
			var r actSweepResult
			for {
				first := (next.Add(1) - 1) * chunk
				if first >= total {
					break
				}
				n := min(chunk, total-first)
				for i := range src[:n] {
					src[i] = math.Float32frombits(uint32((first + uint64(i)) * stride))
				}
				r.inputs += n
				r.scalar += uint64(actInto(act, dst[:n], src[:n]))
				for i, x := range src[:n] {
					if math.Float32bits(dst[i]) != math.Float32bits(def(x)) {
						r.mismatchCount++
						if len(r.mismatches) < 8 {
							r.mismatches = append(r.mismatches, math.Float32bits(x))
						}
					}
				}
				if rejectLimit <= 0 {
					continue
				}
				for b := uint64(0); b < n; b += 8 {
					blk := src[b:min(b+8, n)]
					inRange := 0
					for _, x := range blk {
						if math.Abs(float64(x)) <= rejectLimit {
							inRange++
						}
					}
					r.rejectRange += uint64(inRange)
					if inRange == 0 || actInto(act, dst[:len(blk)], blk) == 0 {
						continue
					}
					for i, x := range blk {
						if math.Abs(float64(x)) <= rejectLimit && actInto(act, one[:], blk[i:i+1]) == 1 {
							r.rejects = append(r.rejects, math.Float32bits(x))
						}
					}
				}
			}
			mu.Lock()
			res.inputs += r.inputs
			res.scalar += r.scalar
			res.mismatchCount += r.mismatchCount
			res.mismatches = append(res.mismatches, r.mismatches...)
			res.rejects = append(res.rejects, r.rejects...)
			res.rejectRange += r.rejectRange
			mu.Unlock()
		}()
	}
	wg.Wait()
	slices.Sort(res.rejects)
	return res
}

// readF32 reads testdata/name: little-endian float32 values.
func readF32(t *testing.T, name string) []float32 {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
