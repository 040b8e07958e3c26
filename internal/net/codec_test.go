package net

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"avgpipe/internal/tensor"
)

// sampleFrames covers every frame type and the payload shapes the
// protocol produces: control frames with no tensors, updates with one
// and several tensors, non-finite and denormal float bits, and a
// zero-element tensor.
func sampleFrames() []*Frame {
	return []*Frame{
		{Type: FrameHello, Replica: 3, Meta: 4},
		{Type: FrameDetach, Replica: 1, Round: 7},
		{Type: FrameRejoin, Replica: 2, Round: 9},
		{Type: FrameUpdate, Replica: 0, Round: 42, Tensors: []*tensor.Tensor{
			tensor.FromSlice([]float32{1, -2.5, 3e-40, float32(math.Inf(1))}, 2, 2),
		}},
		{Type: FrameUpdate, Replica: 5, Round: 1, Tensors: []*tensor.Tensor{
			tensor.FromSlice([]float32{0.25}, 1),
			tensor.FromSlice(nil, 0),
			tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2),
		}},
		// The run layout proper: +0 gaps between runs, a −0 inside one
		// (it is a value, not a gap), an all-+0 tensor with no runs, and
		// the same deltas given in run form.
		{Type: FrameUpdate, Replica: 1, Round: 8, Tensors: []*tensor.Tensor{sparseDelta(), tensor.New(2, 3)}},
		{Type: FrameUpdate, Replica: 1, Round: 8, Runs: []*tensor.Runs{tensor.RunsOf(sparseDelta())}},
		// Blob frames (the telemetry plane): raw payloads carried
		// verbatim, including empty and binary-looking bytes.
		{Type: FrameClockPing, Replica: 1, Blob: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: FrameClockPong, Replica: 2, Blob: bytes.Repeat([]byte{0xff, 0x00}, 12)},
		{Type: FrameTelemetry, Replica: 0, Blob: []byte(`{"replica":0,"families":[]}`)},
		{Type: FrameEvent, Replica: 3, Round: 11, Blob: []byte(`[{"type":"straggler_detected"}]`)},
		{Type: FrameTrace, Replica: 4},
		// Snapshot frames (the serving plane): full reference weights with
		// the tensor-count cross-check in Meta.
		{Type: FrameSnapshot, Replica: 0, Round: 150, Meta: 2, Tensors: []*tensor.Tensor{
			tensor.FromSlice([]float32{0.5, -0.5, 1.25, 2}, 2, 2),
			tensor.FromSlice([]float32{-1e-8}, 1),
		}},
		{Type: FrameSnapshot, Round: 1, Meta: 0},
		// Averaging-topology frames: the group hello and the compressed
		// updates ride the generic blob payload, but their inner
		// encodings have their own codecs — seed valid bytes so the
		// fuzz corpus reaches the blob validators.
		{Type: FrameGroupHello, Replica: 2, Blob: mustBlob(AppendGroupHello(nil,
			GroupHello{Topology: "ring", N: 4, Codecs: AllCodecsMask()}))},
		{Type: FrameUpdateQ8, Replica: 1, Round: 3, Blob: mustPacked(CodecQ8)},
		{Type: FrameUpdateQ16, Replica: 2, Round: 4, Blob: mustPacked(CodecQ16)},
		{Type: FrameUpdateTopK, Replica: 3, Round: 5, Blob: mustPacked(CodecTopK)},
	}
}

// sparseDelta is a 4×4 update with two runs around +0 gaps, one of them
// holding a −0.
func sparseDelta() *tensor.Tensor {
	negZero := float32(math.Copysign(0, -1))
	return tensor.FromSlice([]float32{
		0, 0, 1.5, negZero,
		-2, 0, 0, 0,
		0, 0, 0, 3,
		4, 5, 6, 0,
	}, 4, 4)
}

func mustBlob(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// mustPacked builds a small deterministic compressed-delta blob for the
// given codec.
func mustPacked(c Codec) []byte {
	pd := &PackedDeltas{Codec: c}
	switch c {
	case CodecQ8:
		pd.Tensors = []PackedTensor{{Shape: []int{2, 2}, Scale: 0.5, Q8: []int8{-127, 0, 1, 127}}}
	case CodecQ16:
		pd.Tensors = []PackedTensor{{Shape: []int{3}, Scale: 0.25, Q16: []int16{-32767, 0, 32767}}}
	case CodecTopK:
		pd.Tensors = []PackedTensor{{Shape: []int{5}, Idx: []uint32{1, 4}, Val: []float32{2.5, -3}}}
	}
	return mustBlob(AppendPackedDeltas(nil, pd))
}

func TestCodecRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("encode %v: %v", f.Type, err)
		}
		got, n, err := DecodeFrameBytes(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", f.Type, err)
		}
		if n != len(buf) {
			t.Fatalf("decode %v consumed %d of %d bytes", f.Type, n, len(buf))
		}
		assertFramesEqual(t, f, got)
		// Canonical: re-encoding the decoded frame reproduces the bytes.
		again, err := AppendFrame(nil, got)
		if err != nil {
			t.Fatalf("re-encode %v: %v", f.Type, err)
		}
		if !bytes.Equal(buf, again) {
			t.Fatalf("re-encoding %v is not canonical:\n %x\n %x", f.Type, buf, again)
		}
	}
}

func assertFramesEqual(t *testing.T, want, got *Frame) {
	t.Helper()
	if got.Type != want.Type || got.Replica != want.Replica ||
		got.Round != want.Round || got.Meta != want.Meta {
		t.Fatalf("header mismatch: want %+v, got %+v", want, got)
	}
	if !bytes.Equal(got.Blob, want.Blob) {
		t.Fatalf("blob mismatch: want %x, got %x", want.Blob, got.Blob)
	}
	if got.Type == FrameUpdate && len(got.Tensors) > 0 {
		t.Fatalf("decoded update carries dense tensors, want run form")
	}
	wt, gt := denseTensors(want), denseTensors(got)
	if len(gt) != len(wt) {
		t.Fatalf("tensor count: want %d, got %d", len(wt), len(gt))
	}
	for i := range wt {
		w, g := wt[i], gt[i]
		ws, gs := w.Shape(), g.Shape()
		if len(ws) != len(gs) {
			t.Fatalf("tensor %d dims: want %v, got %v", i, ws, gs)
		}
		for d := range ws {
			if ws[d] != gs[d] {
				t.Fatalf("tensor %d shape: want %v, got %v", i, ws, gs)
			}
		}
		wd, gd := w.Data(), g.Data()
		for e := range wd {
			// Bit comparison: the wire must preserve NaN payloads and
			// signed zeros, not just values.
			if math.Float32bits(wd[e]) != math.Float32bits(gd[e]) {
				t.Fatalf("tensor %d element %d: want bits %08x, got %08x",
					i, e, math.Float32bits(wd[e]), math.Float32bits(gd[e]))
			}
		}
	}
}

// denseTensors is a frame's tensor payload in dense form, whichever form
// it was built or decoded in.
func denseTensors(f *Frame) []*tensor.Tensor {
	out := append([]*tensor.Tensor(nil), f.Tensors...)
	for _, r := range f.Runs {
		out = append(out, r.Dense())
	}
	return out
}

func TestCodecStream(t *testing.T) {
	var buf bytes.Buffer
	frames := sampleFrames()
	for _, f := range frames {
		if err := EncodeFrame(&buf, f); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range frames {
		got, err := DecodeFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		assertFramesEqual(t, want, got)
	}
	if _, err := DecodeFrame(r); err != io.EOF {
		t.Fatalf("at stream end: want io.EOF, got %v", err)
	}
}

func TestCodecTruncatedStream(t *testing.T) {
	full, err := AppendFrame(nil, sampleFrames()[3])
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, headerSize - 1, headerSize, headerSize + 3, len(full) - 1} {
		if _, err := DecodeFrame(bytes.NewReader(full[:cut])); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at %d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	good, err := AppendFrame(nil, sampleFrames()[3])
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(off int, b byte) []byte {
		c := append([]byte(nil), good...)
		c[off] = b
		return c
	}
	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"short header", good[:10], "short frame header"},
		{"bad magic", corrupt(0, 'X'), "bad magic"},
		{"bad version", corrupt(4, 9), "wire version"},
		{"zero type", corrupt(5, 0), "unknown frame type"},
		{"high type", corrupt(5, 200), "unknown frame type"},
		{"reserved bits", corrupt(6, 1), "reserved"},
		{"trailing payload", append(corrupt(20, good[20]+4), 0, 0, 0, 0), "trailing"},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrameBytes(tc.buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestEncodeRejectsUnencodable(t *testing.T) {
	if _, err := AppendFrame(nil, &Frame{Type: 0}); err == nil {
		t.Error("zero frame type encoded")
	}
	if _, err := AppendFrame(nil, &Frame{Type: frameTypeEnd}); err == nil {
		t.Error("out-of-range frame type encoded")
	}
	if _, err := AppendFrame(nil, &Frame{Type: FrameUpdate, Tensors: []*tensor.Tensor{nil}}); err == nil {
		t.Error("nil tensor encoded")
	}
	if _, err := AppendFrame(nil, &Frame{Type: FrameTelemetry, Tensors: []*tensor.Tensor{
		tensor.FromSlice([]float32{1}, 1),
	}}); err == nil {
		t.Error("blob frame with tensors encoded")
	}
	if _, err := AppendFrame(nil, &Frame{Type: FrameUpdate, Blob: []byte{1}}); err == nil {
		t.Error("tensor frame with a blob encoded")
	}
}

// updateBytes wraps one update tensor block — dims 4×4, then the given
// value count, values, and (start, length) pairs — in a frame.
func updateBytes(nv uint32, vals []float32, spans ...uint32) []byte {
	le := binary.LittleEndian
	p := le.AppendUint32(nil, 1)
	p = append(p, 2)
	p = le.AppendUint32(le.AppendUint32(p, 4), 4)
	p = le.AppendUint32(p, nv)
	for _, v := range vals {
		p = le.AppendUint32(p, math.Float32bits(v))
	}
	p = le.AppendUint32(p, uint32(len(spans)/2))
	for _, x := range spans {
		p = le.AppendUint32(p, x)
	}
	h := append(magic[:], codecVersion, byte(FrameUpdate), 0, 0)
	h = le.AppendUint32(le.AppendUint32(le.AppendUint32(h, 1), 8), 0)
	return append(le.AppendUint32(h, uint32(len(p))), p...)
}

// TestUpdateRunLayout pins the version-2 update layout byte for byte,
// shows that an update given as dense tensors and the same update in run
// form are one encoding, and rejects every non-canonical run table on
// both sides of the codec.
func TestUpdateRunLayout(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	vals := []float32{1.5, negZero, -2, 3, 4, 5, 6}
	want := updateBytes(7, vals, 2, 3, 11, 4)
	dense := &Frame{Type: FrameUpdate, Replica: 1, Round: 8, Tensors: []*tensor.Tensor{sparseDelta()}}
	runs := &Frame{Type: FrameUpdate, Replica: 1, Round: 8, Runs: []*tensor.Runs{tensor.RunsOf(sparseDelta())}}
	for _, f := range []*Frame{dense, runs} {
		got, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("update layout:\n got %x\nwant %x", got, want)
		}
		if size, err := FrameWireSize(f); err != nil || size != len(want) {
			t.Fatalf("FrameWireSize = %d, %v; want %d", size, err, len(want))
		}
	}

	for _, tc := range []struct {
		name string
		buf  []byte
		want string
	}{
		{"+0 value", updateBytes(2, []float32{1, 0}, 0, 2), "+0"},
		{"touching runs", updateBytes(2, []float32{1, 2}, 0, 1, 1, 1), "maximal"},
		{"overlapping runs", updateBytes(3, []float32{1, 2, 3}, 3, 2, 4, 1), "maximal"},
		{"descending runs", updateBytes(2, []float32{1, 2}, 5, 1, 2, 1), "maximal"},
		{"empty run", updateBytes(2, []float32{1, 2}, 0, 2, 3, 0), "empty"},
		{"run past the end", updateBytes(2, []float32{1, 2}, 15, 2), "past"},
		{"values uncovered", updateBytes(3, []float32{1, 2, 3}, 0, 2), "cover"},
		{"more runs than values", updateBytes(1, []float32{1}, 0, 1, 2, 1), "runs for"},
		{"more values than elements", updateBytes(17, make([]float32, 17)), "exceed"},
	} {
		if _, _, err := DecodeFrameBytes(tc.buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}

	bad := []*tensor.Runs{
		{Shape: []int{4}, Spans: []tensor.Span{{Start: 0, Len: 2}}, Vals: []float32{1, 0}},
		{Shape: []int{4}, Spans: []tensor.Span{{Start: 0, Len: 1}, {Start: 1, Len: 1}}, Vals: []float32{1, 2}},
		{Shape: []int{4}, Spans: []tensor.Span{{Start: 3, Len: 2}}, Vals: []float32{1, 2}},
	}
	for i, r := range bad {
		if _, err := AppendFrame(nil, &Frame{Type: FrameUpdate, Runs: []*tensor.Runs{r}}); err == nil {
			t.Errorf("non-canonical runs %d encoded", i)
		}
	}
	if _, err := AppendFrame(nil, &Frame{Type: FrameSnapshot, Runs: runs.Runs}); err == nil {
		t.Error("snapshot frame with runs encoded")
	}
}

// TestCodecPortablePath: the one-coefficient-at-a-time path a big-endian
// host takes writes and accepts exactly the bytes the in-place path does.
func TestCodecPortablePath(t *testing.T) {
	if !hostLE {
		t.Skip("big-endian host: the portable path is the only path")
	}
	defer func() { hostLE = true }()
	for _, f := range sampleFrames() {
		hostLE = true
		want, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		hostLE = false
		got, err := AppendFrame(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: portable encoding differs (err %v):\n got %x\nwant %x", f.Type, err, got, want)
		}
		dec, _, err := DecodeFrameBytes(want)
		if err != nil {
			t.Fatalf("%v: portable decode: %v", f.Type, err)
		}
		assertFramesEqual(t, f, dec)
	}
	if _, _, err := DecodeFrameBytes(updateBytes(2, []float32{1, 0}, 0, 2)); err == nil {
		t.Error("portable decode accepted a +0 run value")
	}
	bad := &tensor.Runs{Shape: []int{4}, Spans: []tensor.Span{{Start: 0, Len: 2}}, Vals: []float32{1, 0}}
	if _, err := AppendFrame(nil, &Frame{Type: FrameUpdate, Runs: []*tensor.Runs{bad}}); err == nil {
		t.Error("portable encode accepted a +0 run value")
	}
}
