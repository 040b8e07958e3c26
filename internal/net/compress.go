package net

import (
	"encoding/binary"
	"fmt"
	"math"

	"avgpipe/internal/tensor"
)

// Delta compression for the averaging wire: update frames may carry
// their tensors int8/int16 linear-quantized or top-k sparsified instead
// of as raw f32, cutting bytes per round ~4x (q8), ~2x (q16), or by the
// sparsity factor (top-k). Each compressor keeps an error-feedback
// residual per sender: whatever one round's encoding dropped is added
// back into the next round's delta before encoding, so the emitted
// updates sum to the exact delta stream over time and convergence is
// preserved (the deep-gradient-compression/PowerSGD recipe).
//
// Compressed payloads ride in blob frames (FrameUpdateQ8/Q16/TopK), so
// the frame codec stays trivially canonical; the PackedDeltas layout
// below is itself canonical and fully validated — malformed counts,
// shapes, indices, or scales are errors, never panics (the fuzz target
// covers this layer too).

// Codec selects the update-delta wire encoding.
type Codec uint8

const (
	// CodecNone sends exact f32 deltas (FrameUpdate) — the default.
	CodecNone Codec = iota
	// CodecQ8 linearly quantizes each tensor to int8 with one f32 scale
	// per tensor (scale = maxabs/127): ~4x fewer bytes.
	CodecQ8
	// CodecQ16 linearly quantizes to int16 (scale = maxabs/32767): ~2x
	// fewer bytes at negligible precision loss.
	CodecQ16
	// CodecTopK keeps only the k largest-magnitude coefficients per
	// tensor as (index, value) pairs: bytes scale with the kept
	// fraction.
	CodecTopK
)

// codecEnd bounds the enum for validation.
const codecEnd = CodecTopK + 1

// String names the codec for flags, logs, and test failures.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecQ8:
		return "q8"
	case CodecQ16:
		return "q16"
	case CodecTopK:
		return "topk"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// CodecByName resolves a -compress flag value.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "none", "exact":
		return CodecNone, nil
	case "q8", "int8":
		return CodecQ8, nil
	case "q16", "int16":
		return CodecQ16, nil
	case "topk", "top-k":
		return CodecTopK, nil
	default:
		return CodecNone, fmt.Errorf("net: unknown compression codec %q (want none, q8, q16, or topk)", name)
	}
}

// UpdateFrameType returns the frame type that carries updates encoded
// with c.
func (c Codec) UpdateFrameType() FrameType {
	switch c {
	case CodecQ8:
		return FrameUpdateQ8
	case CodecQ16:
		return FrameUpdateQ16
	case CodecTopK:
		return FrameUpdateTopK
	default:
		return FrameUpdate
	}
}

// UpdateCodec reports the codec a frame type carries updates in, and
// whether t is an update frame at all (exact or compressed).
func UpdateCodec(t FrameType) (Codec, bool) {
	switch t {
	case FrameUpdate:
		return CodecNone, true
	case FrameUpdateQ8:
		return CodecQ8, true
	case FrameUpdateQ16:
		return CodecQ16, true
	case FrameUpdateTopK:
		return CodecTopK, true
	default:
		return CodecNone, false
	}
}

// CodecMask is the supported-codec bitmask advertised in the group
// hello (bit 1<<c for each compressed codec).
func CodecMask(cs ...Codec) uint32 {
	var m uint32
	for _, c := range cs {
		m |= 1 << c
	}
	return m
}

// AllCodecsMask advertises every codec this build understands.
func AllCodecsMask() uint32 { return CodecMask(CodecQ8, CodecQ16, CodecTopK) }

// PackedDeltas is the decoded form of a compressed-update blob: one
// PackedTensor per parameter tensor, all under one codec.
type PackedDeltas struct {
	Codec   Codec
	Tensors []PackedTensor
}

// PackedTensor is one tensor's compressed coefficients. Which fields
// are live depends on the codec: Scale+Q8 for CodecQ8, Scale+Q16 for
// CodecQ16, Idx+Val for CodecTopK.
type PackedTensor struct {
	Shape []int
	Scale float32
	Q8    []int8
	Q16   []int16
	Idx   []uint32 // strictly ascending element indices
	Val   []float32
}

// packedVersion versions the PackedDeltas blob layout.
const packedVersion = 1

// AppendPackedDeltas appends pd's canonical blob encoding to dst:
//
//	u8 version (1), u8 codec, u32 tensor count; per tensor u8 ndims,
//	ndims×u32 dims, then per codec — q8: f32 scale, elems×i8;
//	q16: f32 scale, elems×i16; topk: u32 k, k×u32 ascending indices,
//	k×f32 values (IEEE bits).
func AppendPackedDeltas(dst []byte, pd *PackedDeltas) ([]byte, error) {
	if pd.Codec < CodecQ8 || pd.Codec >= codecEnd {
		return dst, fmt.Errorf("net: cannot pack deltas with codec %v", pd.Codec)
	}
	dst = append(dst, packedVersion, byte(pd.Codec))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pd.Tensors)))
	for i := range pd.Tensors {
		pt := &pd.Tensors[i]
		if len(pt.Shape) > maxDims {
			return dst, fmt.Errorf("net: packed tensor %d has %d dims (max %d)", i, len(pt.Shape), maxDims)
		}
		elems := 1
		dst = append(dst, byte(len(pt.Shape)))
		for _, d := range pt.Shape {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
			elems *= d
		}
		switch pd.Codec {
		case CodecQ8:
			if len(pt.Q8) != elems {
				return dst, fmt.Errorf("net: packed tensor %d has %d q8 values for %d elements", i, len(pt.Q8), elems)
			}
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(pt.Scale))
			for _, q := range pt.Q8 {
				dst = append(dst, byte(q))
			}
		case CodecQ16:
			if len(pt.Q16) != elems {
				return dst, fmt.Errorf("net: packed tensor %d has %d q16 values for %d elements", i, len(pt.Q16), elems)
			}
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(pt.Scale))
			for _, q := range pt.Q16 {
				dst = binary.LittleEndian.AppendUint16(dst, uint16(q))
			}
		case CodecTopK:
			if len(pt.Idx) != len(pt.Val) {
				return dst, fmt.Errorf("net: packed tensor %d has %d indices for %d values", i, len(pt.Idx), len(pt.Val))
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pt.Idx)))
			for _, ix := range pt.Idx {
				dst = binary.LittleEndian.AppendUint32(dst, ix)
			}
			for _, v := range pt.Val {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
			}
		}
	}
	return dst, nil
}

// DecodePackedDeltas parses a compressed-update blob. It never panics:
// short buffers, unknown versions or codecs, dimension overflows,
// element-count mismatches, k exceeding the tensor size, out-of-range
// or non-ascending indices, non-finite or negative scales, and trailing
// bytes are all errors. Like the frame codec, the encoding is
// canonical: re-encoding the decoded value reproduces the bytes.
func DecodePackedDeltas(b []byte) (*PackedDeltas, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("net: packed deltas too short: %d bytes", len(b))
	}
	if b[0] != packedVersion {
		return nil, fmt.Errorf("net: unknown packed-deltas version %d", b[0])
	}
	codec := Codec(b[1])
	if codec < CodecQ8 || codec >= codecEnd {
		return nil, fmt.Errorf("net: unknown packed-deltas codec %d", b[1])
	}
	n := int(binary.LittleEndian.Uint32(b[2:6]))
	if n > maxTensors {
		return nil, fmt.Errorf("net: %d packed tensors exceeds max %d", n, maxTensors)
	}
	p := b[6:]
	pd := &PackedDeltas{Codec: codec, Tensors: make([]PackedTensor, 0, n)}
	for i := 0; i < n; i++ {
		if len(p) < 1 {
			return nil, fmt.Errorf("net: packed tensor %d: missing dim count", i)
		}
		ndims := int(p[0])
		p = p[1:]
		if ndims > maxDims {
			return nil, fmt.Errorf("net: packed tensor %d: %d dims exceeds max %d", i, ndims, maxDims)
		}
		if len(p) < 4*ndims {
			return nil, fmt.Errorf("net: packed tensor %d: truncated dims", i)
		}
		dims := make([]int, ndims)
		elems := 1
		for d := 0; d < ndims; d++ {
			dims[d] = int(binary.LittleEndian.Uint32(p[4*d : 4*d+4]))
			if dims[d] > maxFramePayload {
				return nil, fmt.Errorf("net: packed tensor %d: dim %d out of range", i, dims[d])
			}
			elems *= dims[d]
			if elems > maxFramePayload {
				return nil, fmt.Errorf("net: packed tensor %d: element count overflows frame", i)
			}
		}
		p = p[4*ndims:]
		pt := PackedTensor{Shape: dims}
		switch codec {
		case CodecQ8, CodecQ16:
			if len(p) < 4 {
				return nil, fmt.Errorf("net: packed tensor %d: missing scale", i)
			}
			pt.Scale = math.Float32frombits(binary.LittleEndian.Uint32(p[0:4]))
			p = p[4:]
			if math.IsNaN(float64(pt.Scale)) || math.IsInf(float64(pt.Scale), 0) || pt.Scale < 0 {
				return nil, fmt.Errorf("net: packed tensor %d: malformed scale %v", i, pt.Scale)
			}
			width := 1
			if codec == CodecQ16 {
				width = 2
			}
			if len(p) < width*elems {
				return nil, fmt.Errorf("net: packed tensor %d: truncated quantized data (%d of %d bytes)",
					i, len(p), width*elems)
			}
			if codec == CodecQ8 {
				pt.Q8 = make([]int8, elems)
				for e := range pt.Q8 {
					pt.Q8[e] = int8(p[e])
				}
			} else {
				pt.Q16 = make([]int16, elems)
				for e := range pt.Q16 {
					pt.Q16[e] = int16(binary.LittleEndian.Uint16(p[2*e : 2*e+2]))
				}
			}
			p = p[width*elems:]
		case CodecTopK:
			if len(p) < 4 {
				return nil, fmt.Errorf("net: packed tensor %d: missing k", i)
			}
			k := int(binary.LittleEndian.Uint32(p[0:4]))
			p = p[4:]
			if k > elems {
				return nil, fmt.Errorf("net: packed tensor %d: malformed k %d exceeds %d elements", i, k, elems)
			}
			if len(p) < 8*k {
				return nil, fmt.Errorf("net: packed tensor %d: truncated top-k data", i)
			}
			pt.Idx = make([]uint32, k)
			for e := 0; e < k; e++ {
				pt.Idx[e] = binary.LittleEndian.Uint32(p[4*e : 4*e+4])
				if int(pt.Idx[e]) >= elems {
					return nil, fmt.Errorf("net: packed tensor %d: index %d out of range [0, %d)", i, pt.Idx[e], elems)
				}
				if e > 0 && pt.Idx[e] <= pt.Idx[e-1] {
					return nil, fmt.Errorf("net: packed tensor %d: indices not strictly ascending", i)
				}
			}
			p = p[4*k:]
			pt.Val = make([]float32, k)
			for e := 0; e < k; e++ {
				pt.Val[e] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*e : 4*e+4]))
			}
			p = p[4*k:]
		}
		pd.Tensors = append(pd.Tensors, pt)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("net: %d trailing packed-delta bytes", len(p))
	}
	return pd, nil
}

// Dequantize reconstructs the (lossy) delta tensors a packed update
// represents — the exact values every reference copy must apply so they
// stay bit-identical.
func (pd *PackedDeltas) Dequantize() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(pd.Tensors))
	for i := range pd.Tensors {
		pt := &pd.Tensors[i]
		t := tensor.New(pt.Shape...)
		data := t.Data()
		switch pd.Codec {
		case CodecQ8:
			for e, q := range pt.Q8 {
				data[e] = pt.Scale * float32(q)
			}
		case CodecQ16:
			for e, q := range pt.Q16 {
				data[e] = pt.Scale * float32(q)
			}
		case CodecTopK:
			for e, ix := range pt.Idx {
				data[ix] = pt.Val[e]
			}
		}
		out[i] = t
	}
	return out
}

// UnpackUpdateFrame decodes a compressed update frame's deltas. The
// blob's embedded codec must agree with the frame type — a mismatch is
// a framing error, not a silent reinterpretation.
func UnpackUpdateFrame(f *Frame) ([]*tensor.Tensor, error) {
	c, ok := UpdateCodec(f.Type)
	if !ok || c == CodecNone {
		return nil, fmt.Errorf("net: frame type %v is not a compressed update", f.Type)
	}
	pd, err := DecodePackedDeltas(f.Blob)
	if err != nil {
		return nil, err
	}
	if pd.Codec != c {
		return nil, fmt.Errorf("net: %v frame carries a %v-packed blob", f.Type, pd.Codec)
	}
	return pd.Dequantize(), nil
}

// Compressor turns one sender's exact delta stream into compressed
// updates with error feedback: each Pack adds the residual left over
// from previous rounds to the incoming delta, encodes the sum, and
// keeps what the encoding dropped as the next round's residual. One
// Compressor per submitting pipeline — residuals are sender state.
type Compressor struct {
	codec Codec
	frac  float64
	resid []*tensor.Tensor // lazily shaped from the first Pack
}

// DefaultTopKFraction keeps 5% of coefficients when CodecTopK is
// selected without an explicit fraction — dense enough to converge on
// the seed workloads, sparse enough for ~10x fewer bytes.
const DefaultTopKFraction = 0.05

// NewCompressor builds a compressor for c. topkFrac is the kept
// fraction for CodecTopK in (0, 1] (0 = DefaultTopKFraction); other
// codecs ignore it.
func NewCompressor(c Codec, topkFrac float64) (*Compressor, error) {
	if c < CodecQ8 || c >= codecEnd {
		return nil, fmt.Errorf("net: cannot compress with codec %v", c)
	}
	if topkFrac == 0 {
		topkFrac = DefaultTopKFraction
	}
	if topkFrac < 0 || topkFrac > 1 {
		return nil, fmt.Errorf("net: top-k fraction %v outside (0, 1]", topkFrac)
	}
	return &Compressor{codec: c, frac: topkFrac}, nil
}

// Pack encodes one round's deltas (with error feedback) into a
// compressed-update blob. The deltas are not modified.
func (c *Compressor) Pack(deltas []*tensor.Tensor) ([]byte, error) {
	if c.resid == nil {
		c.resid = make([]*tensor.Tensor, len(deltas))
		for i, d := range deltas {
			c.resid[i] = tensor.New(d.Shape()...)
		}
	}
	if len(deltas) != len(c.resid) {
		return nil, fmt.Errorf("net: compressor saw %d tensors, expected %d", len(deltas), len(c.resid))
	}
	pd := &PackedDeltas{Codec: c.codec, Tensors: make([]PackedTensor, len(deltas))}
	for i, d := range deltas {
		// acc = delta + residual: what this round *should* move.
		acc := c.resid[i].Data()
		dd := d.Data()
		if len(acc) != len(dd) {
			return nil, fmt.Errorf("net: compressor tensor %d has %d elements, expected %d", i, len(dd), len(acc))
		}
		for e := range acc {
			acc[e] += dd[e]
		}
		pt := packTensor(c.codec, c.frac, d.Shape(), acc)
		// residual = acc − dequantize(packed): what the encoding dropped.
		subtractPacked(acc, c.codec, &pt)
		pd.Tensors[i] = pt
	}
	return AppendPackedDeltas(nil, pd)
}

// packTensor encodes one tensor's accumulated delta under the codec.
func packTensor(codec Codec, frac float64, shape []int, acc []float32) PackedTensor {
	pt := PackedTensor{Shape: append([]int(nil), shape...)}
	switch codec {
	case CodecQ8, CodecQ16:
		var maxAbs float32
		for _, v := range acc {
			if a := abs32(v); a > maxAbs {
				maxAbs = a
			}
		}
		levels := float32(127)
		if codec == CodecQ16 {
			levels = 32767
		}
		scale := maxAbs / levels
		pt.Scale = scale
		quant := func(v float32) int32 {
			if scale == 0 {
				return 0
			}
			q := int32(math.RoundToEven(float64(v / scale)))
			if q > int32(levels) {
				q = int32(levels)
			} else if q < -int32(levels) {
				q = -int32(levels)
			}
			return q
		}
		if codec == CodecQ8 {
			pt.Q8 = make([]int8, len(acc))
			for e, v := range acc {
				pt.Q8[e] = int8(quant(v))
			}
		} else {
			pt.Q16 = make([]int16, len(acc))
			for e, v := range acc {
				pt.Q16[e] = int16(quant(v))
			}
		}
	case CodecTopK:
		k := int(math.Round(frac * float64(len(acc))))
		if k < 1 && len(acc) > 0 {
			k = 1
		}
		if k > len(acc) {
			k = len(acc)
		}
		pt.Idx = topK(acc, k)
		pt.Val = make([]float32, k)
		for e, ix := range pt.Idx {
			pt.Val[e] = acc[ix]
		}
	}
	return pt
}

// topK returns the indices of the k largest-magnitude coefficients of acc
// in ascending order, ties at the cut going to the lower index — the set
// a full sort by descending magnitude, then index, would keep, found in
// four linear passes. Magnitudes compare as the bits of |x|, which order
// exactly as the values do (a NaN ranks above +Inf). The k-th largest key
// is radix-selected 11, 11, then 10 bits at a time from the top; every key
// above it is kept, and as many equal to it as k still needs, in index
// order.
func topK(acc []float32, k int) []uint32 {
	idx := make([]uint32, 0, k)
	if k >= len(acc) {
		for i := range acc {
			idx = append(idx, uint32(i))
		}
		return idx
	}
	key := func(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }
	var cut, fixed uint32 // the threshold's bits found so far, and which
	need := k             // keys still to take at or below the fixed prefix
	for _, digit := range [...]struct{ shift, width uint }{{21, 11}, {10, 11}, {0, 10}} {
		var hist [1 << 11]int
		dmask := uint32(1)<<digit.width - 1
		for _, v := range acc {
			if kv := key(v); kv&fixed == cut {
				hist[kv>>digit.shift&dmask]++
			}
		}
		d := dmask
		for hist[d] < need {
			need -= hist[d]
			d--
		}
		cut |= d << digit.shift
		fixed |= dmask << digit.shift
	}
	for i, v := range acc {
		if kv := key(v); kv > cut || (kv == cut && need > 0) {
			if kv == cut {
				need--
			}
			idx = append(idx, uint32(i))
		}
	}
	return idx
}

// subtractPacked subtracts the dequantized encoding from acc in place,
// leaving the error-feedback residual.
func subtractPacked(acc []float32, codec Codec, pt *PackedTensor) {
	switch codec {
	case CodecQ8:
		for e, q := range pt.Q8 {
			acc[e] -= pt.Scale * float32(q)
		}
	case CodecQ16:
		for e, q := range pt.Q16 {
			acc[e] -= pt.Scale * float32(q)
		}
	case CodecTopK:
		for e, ix := range pt.Idx {
			acc[ix] -= pt.Val[e]
		}
	}
}

func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}

// GroupHello is the decoded FrameGroupHello payload: the sender's view
// of the fabric, cross-checked at handshake.
type GroupHello struct {
	// Topology is the wire name of the sender's topology.
	Topology string
	// Group is the sender's hierarchical group size (0 outside hier).
	Group int
	// N is the sender's job size.
	N int
	// Codecs is the sender's supported-compression bitmask (CodecMask).
	Codecs uint32
}

// topology wire ids for the group hello.
var topoIDs = map[string]byte{"mesh": 1, "ring": 2, "hier": 3}

// AppendGroupHello appends gh's 12-byte encoding to dst: u8 version,
// u8 topology id, u16 group size, u32 n, u32 codec mask (LE).
func AppendGroupHello(dst []byte, gh GroupHello) ([]byte, error) {
	id, ok := topoIDs[gh.Topology]
	if !ok {
		return dst, fmt.Errorf("net: group hello for unknown topology %q", gh.Topology)
	}
	if gh.Group < 0 || gh.Group > 0xffff {
		return dst, fmt.Errorf("net: group hello group size %d out of range", gh.Group)
	}
	dst = append(dst, packedVersion, id)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(gh.Group))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(gh.N))
	dst = binary.LittleEndian.AppendUint32(dst, gh.Codecs)
	return dst, nil
}

// ParseGroupHello decodes a FrameGroupHello blob; any malformed
// payload — wrong length, unknown version or topology id — is an
// error, never a panic.
func ParseGroupHello(b []byte) (GroupHello, error) {
	if len(b) != 12 {
		return GroupHello{}, fmt.Errorf("net: group hello is %d bytes, want 12", len(b))
	}
	if b[0] != packedVersion {
		return GroupHello{}, fmt.Errorf("net: unknown group-hello version %d", b[0])
	}
	var name string
	for topo, id := range topoIDs {
		if id == b[1] {
			name = topo
			break
		}
	}
	if name == "" {
		return GroupHello{}, fmt.Errorf("net: unknown group-hello topology id %d", b[1])
	}
	return GroupHello{
		Topology: name,
		Group:    int(binary.LittleEndian.Uint16(b[2:4])),
		N:        int(binary.LittleEndian.Uint32(b[4:8])),
		Codecs:   binary.LittleEndian.Uint32(b[8:12]),
	}, nil
}
