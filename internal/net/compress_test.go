package net

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"avgpipe/internal/tensor"
)

// finite32s filters quick's raw float32 slices down to finite values —
// the domain deltas live in (NaN/Inf gradients are clipped upstream).
func finite32s(vs []float32) []float32 {
	out := vs[:0]
	for _, v := range vs {
		if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			out = append(out, v)
		}
	}
	return out
}

func packOnce(t *testing.T, codec Codec, frac float64, vs []float32) *PackedDeltas {
	t.Helper()
	c, err := NewCompressor(codec, frac)
	if err != nil {
		t.Fatal(err)
	}
	d := tensor.New(len(vs))
	copy(d.Data(), vs)
	blob, err := c.Pack([]*tensor.Tensor{d})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := DecodePackedDeltas(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical: re-encoding the decoded value reproduces the bytes.
	re, err := AppendPackedDeltas(nil, pd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, blob) {
		t.Fatalf("%v encoding not canonical", codec)
	}
	return pd
}

// TestQuantRoundTripBounded checks the linear-quantization property: a
// fresh compressor's first emission reconstructs every coefficient to
// within half a quantization step (scale = maxabs/levels).
func TestQuantRoundTripBounded(t *testing.T) {
	for _, codec := range []Codec{CodecQ8, CodecQ16} {
		prop := func(raw []float32) bool {
			vs := finite32s(raw)
			if len(vs) == 0 {
				return true
			}
			pd := packOnce(t, codec, 0, vs)
			got := pd.Dequantize()[0].Data()
			step := float64(pd.Tensors[0].Scale)
			for e, v := range vs {
				// Half a step, plus ULP headroom for the float32 scale
				// division and dequantizing multiply.
				tol := step/2 + (step+math.Abs(float64(v)))*1e-5
				if math.Abs(float64(got[e])-float64(v)) > tol {
					t.Logf("%v: coeff %d: %v -> %v (step %v)", codec, e, v, got[e], step)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", codec, err)
		}
	}
}

// TestTopKPreservesLargest checks the sparsification property: the kept
// set is exactly the k largest magnitudes — every dropped coefficient is
// no larger than the smallest kept one — and kept values ride exactly.
func TestTopKPreservesLargest(t *testing.T) {
	prop := func(raw []float32, frac float64) bool {
		vs := finite32s(raw)
		if len(vs) == 0 {
			return true
		}
		frac = math.Mod(math.Abs(frac), 1)
		if frac == 0 {
			frac = 0.25
		}
		pd := packOnce(t, CodecTopK, frac, vs)
		pt := pd.Tensors[0]
		wantK := int(math.Round(frac * float64(len(vs))))
		if wantK < 1 {
			wantK = 1
		}
		if wantK > len(vs) {
			wantK = len(vs)
		}
		if len(pt.Idx) != wantK {
			t.Logf("k=%d, want %d", len(pt.Idx), wantK)
			return false
		}
		kept := map[int]bool{}
		minKept := float32(math.Inf(1))
		for e, ix := range pt.Idx {
			if pt.Val[e] != vs[ix] {
				t.Logf("kept value %d mutated: %v != %v", ix, pt.Val[e], vs[ix])
				return false
			}
			kept[int(ix)] = true
			if a := abs32(pt.Val[e]); a < minKept {
				minKept = a
			}
		}
		for e, v := range vs {
			if !kept[e] && abs32(v) > minKept {
				t.Logf("dropped |%v| at %d exceeds smallest kept %v", v, e, minKept)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTopKSelectionMatchesSort: the radix selection keeps exactly the
// index set the full sort it replaced kept — descending magnitude, ties
// to the lower index, emitted in index order — on inputs dense with ties,
// signed zeros and magnitudes differing only in their low bits.
func TestTopKSelectionMatchesSort(t *testing.T) {
	oracle := func(acc []float32, k int) []uint32 {
		order := make([]int, len(acc))
		for e := range order {
			order[e] = e
		}
		sort.Slice(order, func(a, b int) bool {
			ma, mb := abs32(acc[order[a]]), abs32(acc[order[b]])
			if ma != mb {
				return ma > mb
			}
			return order[a] < order[b]
		})
		kept := append([]int(nil), order[:k]...)
		sort.Ints(kept)
		idx := make([]uint32, k)
		for e, ix := range kept {
			idx[e] = uint32(ix)
		}
		return idx
	}
	prop := func(seed int64, size uint16, kk uint16) bool {
		r := rand.New(rand.NewSource(seed))
		acc := make([]float32, int(size%3000))
		pool := []float32{0, 1, 1e-3, 3.5, math.MaxFloat32, math.SmallestNonzeroFloat32,
			math.Float32frombits(0x3f800001), float32(math.Inf(1))}
		for e := range acc {
			v := pool[r.Intn(len(pool))]
			if r.Intn(3) == 0 {
				v = float32(r.NormFloat64())
			}
			if r.Intn(2) == 0 {
				v = -v
			}
			acc[e] = v
		}
		k := int(kk) % (len(acc) + 1)
		got, want := topK(acc, k), oracle(acc, k)
		if len(got) != len(want) {
			t.Logf("n=%d k=%d: kept %d", len(acc), k, len(got))
			return false
		}
		for e := range want {
			if got[e] != want[e] {
				t.Logf("n=%d k=%d: kept[%d] = %d, want %d", len(acc), k, e, got[e], want[e])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestErrorFeedbackSumsToExact checks the error-feedback invariant over
// a multi-round stream: emitted updates plus the final residual equal
// the exact delta sum — nothing the codec dropped is ever lost.
func TestErrorFeedbackSumsToExact(t *testing.T) {
	for _, codec := range []Codec{CodecQ8, CodecQ16, CodecTopK} {
		prop := func(r0, r1, r2 []float32) bool {
			rounds := [][]float32{finite32s(r0), finite32s(r1), finite32s(r2)}
			size := 0
			for _, r := range rounds {
				if len(r) > size {
					size = len(r)
				}
			}
			if size == 0 {
				return true
			}
			// Clamp magnitudes so the float32 sums cannot overflow.
			for _, r := range rounds {
				for i, v := range r {
					if a := abs32(v); a > 1e6 {
						r[i] = v / a * 1e6
					}
				}
			}
			c, err := NewCompressor(codec, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			exact := make([]float64, size)
			emitted := make([]float64, size)
			var maxAbs float64
			for _, r := range rounds {
				d := tensor.New(size)
				copy(d.Data(), r)
				for e, v := range d.Data() {
					exact[e] += float64(v)
					if a := math.Abs(float64(v)); a > maxAbs {
						maxAbs = a
					}
				}
				blob, err := c.Pack([]*tensor.Tensor{d})
				if err != nil {
					t.Fatal(err)
				}
				pd, err := DecodePackedDeltas(blob)
				if err != nil {
					t.Fatal(err)
				}
				for e, v := range pd.Dequantize()[0].Data() {
					emitted[e] += float64(v)
				}
			}
			resid := c.resid[0].Data()
			tol := maxAbs*1e-4 + 1e-6
			for e := range exact {
				if diff := math.Abs(emitted[e] + float64(resid[e]) - exact[e]); diff > tol {
					t.Logf("%v coeff %d: emitted %v + residual %v != exact %v (diff %v)",
						codec, e, emitted[e], resid[e], exact[e], diff)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", codec, err)
		}
	}
}

// TestDecodePackedDeltasRejectsMalformed pins the decoder's validation:
// every corruption is an error, never a panic or a silent accept.
func TestDecodePackedDeltasRejectsMalformed(t *testing.T) {
	valid := func(codec Codec) []byte {
		c, err := NewCompressor(codec, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		d := tensor.New(4)
		copy(d.Data(), []float32{1, -2, 3, -4})
		blob, err := c.Pack([]*tensor.Tensor{d})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	mutate := func(b []byte, at int, to byte) []byte {
		m := append([]byte(nil), b...)
		m[at] = to
		return m
	}
	q8 := valid(CodecQ8)
	topk := valid(CodecTopK)
	cases := map[string][]byte{
		"empty":          {},
		"short":          q8[:3],
		"bad-version":    mutate(q8, 0, 99),
		"bad-codec":      mutate(q8, 1, 77),
		"truncated-data": q8[:len(q8)-1],
		"trailing-bytes": append(append([]byte(nil), q8...), 0),
		"nan-scale": func() []byte {
			m := append([]byte(nil), q8...)
			binary.LittleEndian.PutUint32(m[11:15], math.Float32bits(float32(math.NaN())))
			return m
		}(),
		"negative-scale": func() []byte {
			m := append([]byte(nil), q8...)
			binary.LittleEndian.PutUint32(m[11:15], math.Float32bits(-1))
			return m
		}(),
		"oversized-k": func() []byte {
			m := append([]byte(nil), topk...)
			binary.LittleEndian.PutUint32(m[11:15], 1<<30)
			return m
		}(),
		"descending-index": func() []byte {
			m := append([]byte(nil), topk...)
			binary.LittleEndian.PutUint32(m[15:19], 3)
			binary.LittleEndian.PutUint32(m[19:23], 0)
			return m
		}(),
	}
	for name, blob := range cases {
		if _, err := DecodePackedDeltas(blob); err == nil {
			t.Errorf("%s: malformed blob accepted", name)
		}
	}
}

// TestGroupHelloRoundTrip covers the group-hello codec, including its
// malformed-payload rejections.
func TestGroupHelloRoundTrip(t *testing.T) {
	gh := GroupHello{Topology: "hier", Group: 3, N: 9, Codecs: AllCodecsMask()}
	b, err := AppendGroupHello(nil, gh)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseGroupHello(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != gh {
		t.Fatalf("round trip: %+v != %+v", got, gh)
	}
	if _, err := AppendGroupHello(nil, GroupHello{Topology: "torus"}); err == nil {
		t.Error("unknown topology encoded")
	}
	if _, err := ParseGroupHello(b[:11]); err == nil {
		t.Error("short group hello accepted")
	}
	if _, err := ParseGroupHello(append([]byte{}, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := ParseGroupHello(append([]byte{}, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
		t.Error("bad topology id accepted")
	}
}

// TestCompressedBytesOnWire is the obs-counter gate for the bandwidth
// headline: the same delta broadcast over a live TCP link moves ≥4x
// fewer bytes top-k compressed (and ~4x under q8) than as exact f32,
// measured at the transport's byte counters.
func TestCompressedBytesOnWire(t *testing.T) {
	const elems = 1 << 14
	trs, meshes := FormTestJob(t, true, FullMesh{}, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Drain replica 1's inbound so TCP windows never stall the sends.
	go func() {
		c := meshes[1].Recv(0)
		for {
			if _, err := c.Recv(context.Background()); err != nil {
				return
			}
		}
	}()

	delta := tensor.New(elems)
	for i := range delta.Data() {
		delta.Data()[i] = float32(i%251) - 125
	}
	sent := trs[0].(*TCP).bytesSent.Value
	send := func(f *Frame) float64 {
		before := sent()
		if err := meshes[0].Broadcast(ctx, f); err != nil {
			t.Fatal(err)
		}
		return sent() - before
	}

	exactBytes := send(&Frame{Type: FrameUpdate, Replica: 0, Round: 0, Tensors: []*tensor.Tensor{delta}})
	compressed := map[Codec]float64{}
	for _, codec := range []Codec{CodecQ8, CodecTopK} {
		c, err := NewCompressor(codec, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := c.Pack([]*tensor.Tensor{delta})
		if err != nil {
			t.Fatal(err)
		}
		compressed[codec] = send(&Frame{Type: codec.UpdateFrameType(), Replica: 0, Round: 0, Blob: blob})
	}
	if exactBytes <= 0 {
		t.Fatal("byte counter saw no exact update")
	}
	// Top-k at 10% kept: 8 bytes per kept pair → ~5x fewer bytes; the
	// headline ≥4x gate.
	if ratio := exactBytes / compressed[CodecTopK]; ratio < 4 {
		t.Errorf("topk moved %0.f bytes vs exact %0.f — %.2fx, want ≥4x",
			compressed[CodecTopK], exactBytes, ratio)
	}
	// q8 is 1 byte per coefficient against 4: asymptotically 4x, gated
	// with headroom for the per-tensor scale and frame header.
	if ratio := exactBytes / compressed[CodecQ8]; ratio < 3.5 {
		t.Errorf("q8 moved %0.f bytes vs exact %0.f — %.2fx, want ≥3.5x",
			compressed[CodecQ8], exactBytes, ratio)
	}
}
