package net

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"avgpipe/internal/tensor"
)

// FrameType discriminates the messages of the elastic-averaging wire
// protocol.
type FrameType uint8

const (
	// FrameHello is the telemetry publisher's greeting to a collector
	// (obs/collect): Replica names the sender. Mesh connections open
	// with FrameGroupHello instead.
	FrameHello FrameType = iota + 1
	// FrameUpdate carries one replica's parameter deltas for one
	// averaging round (§3.2 step ❸) in run form (Runs).
	FrameUpdate
	// FrameDetach announces that Replica left the averaging set at
	// Round (crash or clean shutdown); peers renormalize without it.
	FrameDetach
	// FrameRejoin announces that Replica re-entered the averaging set
	// at Round after reseeding itself from its reference copy.
	FrameRejoin
	// FrameClockPing opens one round-trip clock measurement: the blob
	// carries the sender's send timestamp t1 (8 bytes, unix nanos LE).
	FrameClockPing
	// FrameClockPong answers a ping: the blob echoes t1 and adds the
	// responder's receive/reply timestamps t2, t3 (24 bytes total), from
	// which the pinger computes the round-trip-midpoint clock offset.
	FrameClockPong
	// FrameTelemetry carries one replica's periodic metric snapshot
	// (JSON, see obs/collect) to a telemetry collector.
	FrameTelemetry
	// FrameEvent carries a batch of structured health events (JSON
	// array of obs.Event) to a telemetry collector.
	FrameEvent
	// FrameTrace carries a batch of Chrome-trace events (JSON array of
	// obs.TraceEvent) to a telemetry collector for cross-replica merge.
	FrameTrace
	// FrameRefRequest asks a peer for its current reference-model state
	// so a restarted replica can rejoin round-aligned: Replica names the
	// requester. Answered with a FrameRefState on the reverse direction
	// of the pair.
	FrameRefRequest
	// FrameRefState answers a ref request: Tensors carry the responder's
	// reference weights and Round the next averaging round the responder
	// expects to close, which becomes the rejoiner's resume round.
	FrameRefState
	// FrameSnapshot publishes the reference model to an inference tier
	// (internal/serve): Tensors carry the full reference weights, Round
	// the training round they were averaged at, and Meta the tensor
	// count the sender believes the model has — a cheap geometry
	// cross-check before the receiver walks the payload.
	FrameSnapshot
	// FrameGroupHello is the mesh handshake, the first frame of every
	// mesh connection on every topology: Replica names the sender, Round
	// carries the session epoch (0 at formation), and the blob carries
	// the sender's fingerprint — topology, group size, job size — and
	// supported-codec mask (see GroupHello), so a mis-assembled job or a
	// topology or compression mis-configuration fails at handshake
	// instead of stranding frames mid-round.
	FrameGroupHello
	// FrameUpdateQ8 is FrameUpdate with the deltas int8-linear-quantized
	// (see compress.go): the blob is a PackedDeltas encoding, Replica
	// still names the originating pipeline and Round the averaging
	// round, so compressed and exact updates mix within one round.
	FrameUpdateQ8
	// FrameUpdateQ16 is FrameUpdate with int16-linear-quantized deltas.
	FrameUpdateQ16
	// FrameUpdateTopK is FrameUpdate carrying only the k
	// largest-magnitude delta coefficients per tensor (index/value
	// pairs), the sender accumulating the dropped remainder as
	// error-feedback residual.
	FrameUpdateTopK
	frameTypeEnd
)

// blobPayload reports whether t's payload is an opaque byte blob rather
// than the tensor block. Blob frames skip the tensor framing entirely:
// the payload IS the blob, so the encoding stays trivially canonical.
func (t FrameType) blobPayload() bool {
	return (t >= FrameClockPing && t <= FrameTrace) ||
		(t >= FrameGroupHello && t <= FrameUpdateTopK)
}

// String names the frame type for logs and test failures.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameUpdate:
		return "update"
	case FrameDetach:
		return "detach"
	case FrameRejoin:
		return "rejoin"
	case FrameClockPing:
		return "clock-ping"
	case FrameClockPong:
		return "clock-pong"
	case FrameTelemetry:
		return "telemetry"
	case FrameEvent:
		return "event"
	case FrameTrace:
		return "trace"
	case FrameRefRequest:
		return "ref-request"
	case FrameRefState:
		return "ref-state"
	case FrameSnapshot:
		return "snapshot"
	case FrameGroupHello:
		return "group-hello"
	case FrameUpdateQ8:
		return "update-q8"
	case FrameUpdateQ16:
		return "update-q16"
	case FrameUpdateTopK:
		return "update-topk"
	default:
		return fmt.Sprintf("frametype(%d)", uint8(t))
	}
}

// Frame is one wire message. Replica and Round locate it in the
// elastic-averaging protocol; Meta is per-type scalar payload (the
// destination replica of FrameRefState, the tensor count of
// FrameSnapshot, 0 otherwise); Tensors is the parameter
// payload of the dense tensor frames (reference state, snapshots; empty
// for control frames). An update's deltas travel in run form: Runs on
// the frames the averager builds and every decoded FrameUpdate, while a
// FrameUpdate built from dense Tensors is run-encoded on the way out —
// one wire layout either way, and never both fields at once. Blob is the
// opaque payload of the blob frame types (clock ping/pong, telemetry,
// event, trace, group hello, compressed updates) and must be nil on
// tensor frames, just as Tensors and Runs must be empty on blob frames.
type Frame struct {
	Type    FrameType
	Replica uint32
	Round   uint32
	Meta    uint32
	Tensors []*tensor.Tensor
	Runs    []*tensor.Runs
	Blob    []byte
}

// Wire format (all integers little-endian):
//
//	offset size field
//	0      4    magic "AVPW"
//	4      1    version (2)
//	5      1    frame type
//	6      2    reserved, must be zero
//	8      4    replica
//	12     4    round
//	16     4    meta
//	20     4    payload length P
//	24     P    payload — tensor frames (types 1, 3, 4, 10..12): u32
//	            tensor count, then per tensor u8 ndims, ndims×u32 dims,
//	            prod(dims)×f32 data (IEEE bits); update frames (type 2):
//	            u32 tensor count, then per tensor u8 ndims, ndims×u32
//	            dims, u32 value count V, V×f32 values, u32 run count R,
//	            R×(u32 start, u32 length) — the tensor's maximal runs of
//	            coefficients whose bits are not +0 (tensor.Runs), every
//	            other coefficient +0; blob frames (types 5..9, 13..16): P
//	            raw bytes, verbatim (compressed-update blobs carry their
//	            own canonical PackedDeltas layout, validated one layer up
//	            — see compress.go)
//
// Runs are maximal — non-empty, ascending, separated by at least one +0,
// no +0 among the values — so a dense tensor has exactly one run layout.
// Values precede the run table so a dense tensor encodes in one pass.
//
// The encoding is canonical: for every byte string that decodes, re-
// encoding the decoded frame reproduces the bytes exactly (the fuzz
// target enforces this), so frames can be compared and deduplicated by
// their encoding.
const (
	headerSize   = 24
	codecVersion = 2

	// Decode limits: a hostile or corrupt length field must not drive
	// allocation. maxFramePayload bounds one frame (64 MiB covers the
	// largest workload's full parameter set with wide margin);
	// maxTensors and maxDims bound the per-frame structure.
	maxFramePayload = 64 << 20
	maxTensors      = 1 << 16
	maxDims         = 8
)

var magic = [4]byte{'A', 'V', 'P', 'W'}

// hostLE reports a little-endian host, on which a stretch of wire f32s is
// the in-memory float32 layout and values move with one pass of the run
// encoder instead of one call per coefficient.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32s views b as the float32s it holds in host byte order. Alignment is
// not required: the views are read and written by plain and unaligned
// vector loads and stores only.
func f32s(b []byte) []float32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// checkFrame validates f's structure: a known type, the payload fields
// that type allows, and the structure limits. Run tables are validated
// here too, so the encoder never writes a run layout the decoder rejects.
func checkFrame(f *Frame) error {
	if f.Type < FrameHello || f.Type >= frameTypeEnd {
		return fmt.Errorf("net: cannot encode frame type %d", f.Type)
	}
	if f.Type.blobPayload() {
		if len(f.Tensors) > 0 || len(f.Runs) > 0 {
			return fmt.Errorf("net: %v frame cannot carry tensors", f.Type)
		}
		if len(f.Blob) > maxFramePayload {
			return fmt.Errorf("net: frame payload %d bytes exceeds max %d", len(f.Blob), maxFramePayload)
		}
		return nil
	}
	if f.Blob != nil {
		return fmt.Errorf("net: %v frame cannot carry a blob", f.Type)
	}
	if len(f.Runs) > 0 && (f.Type != FrameUpdate || len(f.Tensors) > 0) {
		return fmt.Errorf("net: only an update frame carries runs, and not beside dense tensors")
	}
	if len(f.Tensors)+len(f.Runs) > maxTensors {
		return fmt.Errorf("net: frame has %d tensors (max %d)", len(f.Tensors)+len(f.Runs), maxTensors)
	}
	for i, t := range f.Tensors {
		if t == nil {
			return fmt.Errorf("net: tensor %d is nil", i)
		}
		if t.Dims() > maxDims {
			return fmt.Errorf("net: tensor %d has %d dims (max %d)", i, t.Dims(), maxDims)
		}
	}
	for i, r := range f.Runs {
		if r == nil {
			return fmt.Errorf("net: tensor %d is nil", i)
		}
		if len(r.Shape) > maxDims {
			return fmt.Errorf("net: tensor %d has %d dims (max %d)", i, len(r.Shape), maxDims)
		}
		if err := checkSpans(r.Spans, r.Size(), len(r.Vals)); err != nil {
			return fmt.Errorf("net: tensor %d: %w", i, err)
		}
	}
	return nil
}

// checkSpans validates a run table against its tensor's element count and
// value count: runs non-empty, in range, ascending with a gap between
// neighbours, covering exactly nv values.
func checkSpans(spans []tensor.Span, elems, nv int) error {
	var end, total uint64
	for k, sp := range spans {
		if sp.Len == 0 {
			return fmt.Errorf("run %d is empty", k)
		}
		if k > 0 && uint64(sp.Start) <= end {
			return fmt.Errorf("run %d at %d does not follow run %d's end %d with a +0 (runs must be maximal)", k, sp.Start, k-1, end)
		}
		end = uint64(sp.Start) + uint64(sp.Len)
		if end > uint64(elems) {
			return fmt.Errorf("run %d ends at %d past %d elements", k, end, elems)
		}
		total += uint64(sp.Len)
	}
	if total != uint64(nv) {
		return fmt.Errorf("runs cover %d values, %d present", total, nv)
	}
	return nil
}

// payloadBound is f's payload size — exact, except that a dense update
// tensor is counted at its dense size without its run table, which is
// only known once it is encoded.
func payloadBound(f *Frame) int {
	if f.Type.blobPayload() {
		return len(f.Blob)
	}
	n := 4
	for _, t := range f.Tensors {
		n += 1 + 4*t.Dims() + 4*t.Size()
		if f.Type == FrameUpdate {
			n += 8
		}
	}
	for _, r := range f.Runs {
		n += 1 + 4*len(r.Shape) + 4 + 4*len(r.Vals) + 4 + 8*len(r.Spans)
	}
	return n
}

// FrameWireSize reports the canonical encoded size of f in bytes — the
// cost one delivery of f puts on the wire. The averager's bytes-on-wire
// metric uses it, so compression and zero-run savings are visible even
// when the transport underneath is an in-process pipe. For run-form
// updates it is computed from the run tables; an update given as dense
// tensors is encoded to learn its size.
func FrameWireSize(f *Frame) (int, error) {
	if err := checkFrame(f); err != nil {
		return 0, err
	}
	if f.Type == FrameUpdate && len(f.Tensors) > 0 {
		b, err := AppendFrame(nil, f)
		return len(b), err
	}
	n := payloadBound(f)
	if n > maxFramePayload {
		return 0, fmt.Errorf("net: frame payload %d bytes exceeds max %d", n, maxFramePayload)
	}
	return headerSize + n, nil
}

// AppendFrame appends f's canonical encoding to dst and returns the
// extended slice. On error dst is returned unextended.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if err := checkFrame(f); err != nil {
		return dst, err
	}
	base := len(dst)
	dst = slices.Grow(dst, headerSize+payloadBound(f))
	dst = append(dst, magic[:]...)
	dst = append(dst, codecVersion, byte(f.Type), 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, f.Replica)
	dst = binary.LittleEndian.AppendUint32(dst, f.Round)
	dst = binary.LittleEndian.AppendUint32(dst, f.Meta)
	dst = append(dst, 0, 0, 0, 0) // payload length, set below
	var err error
	switch {
	case f.Type.blobPayload():
		dst = append(dst, f.Blob...)
	case f.Type == FrameUpdate:
		dst, err = appendUpdate(dst, f)
	default:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Tensors)))
		for _, t := range f.Tensors {
			dst = appendDims(dst, t.Shape())
			for _, v := range t.Data() {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
			}
		}
	}
	if err != nil {
		return dst[:base], err
	}
	size := len(dst) - base - headerSize
	if size > maxFramePayload {
		return dst[:base], fmt.Errorf("net: frame payload %d bytes exceeds max %d", size, maxFramePayload)
	}
	binary.LittleEndian.PutUint32(dst[base+20:], uint32(size))
	return dst, nil
}

func appendDims(dst []byte, shape []int) []byte {
	dst = append(dst, byte(len(shape)))
	for _, d := range shape {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
	}
	return dst
}

// appendUpdate appends an update frame's tensor block in run layout. A
// dense tensor goes through the run encoder straight into dst; a run-form
// tensor's values are copied by the same encoder, which also proves none
// of them is +0.
func appendUpdate(dst []byte, f *Frame) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Tensors)+len(f.Runs)))
	for _, t := range f.Tensors {
		dst = appendDims(dst, t.Shape())
		if !hostLE {
			r := tensor.RunsOf(t)
			dst, _ = appendValues(dst, r.Vals)
			dst = appendSpans(dst, r.Spans)
			continue
		}
		// Reserve the dense size, pack the runs' values into it, trim.
		at := len(dst)
		dst = slices.Grow(dst, 4+4*t.Size())[:at+4+4*t.Size()]
		nv, spans := tensor.PackRuns(t.Data(), f32s(dst[at+4:]), nil)
		binary.LittleEndian.PutUint32(dst[at:], uint32(nv))
		dst = appendSpans(dst[:at+4+4*nv], spans)
	}
	for i, r := range f.Runs {
		dst = appendDims(dst, r.Shape)
		var ok bool
		if dst, ok = appendValues(dst, r.Vals); !ok {
			return dst, fmt.Errorf("net: tensor %d: run value is +0 (runs must be maximal)", i)
		}
		dst = appendSpans(dst, r.Spans)
	}
	return dst, nil
}

// appendValues appends a value count and the values' IEEE bits, reporting
// whether none of them is +0.
func appendValues(dst []byte, vals []float32) ([]byte, bool) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	if hostLE {
		at := len(dst)
		dst = slices.Grow(dst, 4*len(vals))[:at+4*len(vals)]
		return dst, copyNonZero(f32s(dst[at:]), vals)
	}
	ok := true
	for _, v := range vals {
		ok = ok && math.Float32bits(v) != 0
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst, ok
}

// copyNonZero copies src to dst with the run encoder and reports whether
// no value was +0 — a single run means every value made it.
func copyNonZero(dst, src []float32) bool {
	var one [1]tensor.Span
	nv, _ := tensor.PackRuns(src, dst, one[:0])
	return nv == len(src)
}

func appendSpans(dst []byte, spans []tensor.Span) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(spans)))
	for _, sp := range spans {
		dst = binary.LittleEndian.AppendUint32(dst, sp.Start)
		dst = binary.LittleEndian.AppendUint32(dst, sp.Len)
	}
	return dst
}

// DecodeFrameBytes decodes one frame from the front of b, returning the
// frame and the number of bytes consumed. It never panics: any
// malformed input — bad magic, unknown version or type, non-zero
// reserved bits, a length field disagreeing with the structure it
// frames, dimension/data mismatches — is an error.
func DecodeFrameBytes(b []byte) (*Frame, int, error) {
	if len(b) < headerSize {
		return nil, 0, fmt.Errorf("net: short frame header: %d bytes", len(b))
	}
	if [4]byte(b[0:4]) != magic {
		return nil, 0, fmt.Errorf("net: bad magic %q", b[0:4])
	}
	if b[4] != codecVersion {
		return nil, 0, fmt.Errorf("net: unknown wire version %d", b[4])
	}
	typ := FrameType(b[5])
	if typ < FrameHello || typ >= frameTypeEnd {
		return nil, 0, fmt.Errorf("net: unknown frame type %d", b[5])
	}
	if b[6] != 0 || b[7] != 0 {
		return nil, 0, fmt.Errorf("net: non-zero reserved bytes %x", b[6:8])
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[20:24]))
	if payloadLen > maxFramePayload {
		return nil, 0, fmt.Errorf("net: payload length %d exceeds max %d", payloadLen, maxFramePayload)
	}
	if len(b) < headerSize+payloadLen {
		return nil, 0, fmt.Errorf("net: truncated frame: have %d of %d payload bytes",
			len(b)-headerSize, payloadLen)
	}
	f := &Frame{
		Type:    typ,
		Replica: binary.LittleEndian.Uint32(b[8:12]),
		Round:   binary.LittleEndian.Uint32(b[12:16]),
		Meta:    binary.LittleEndian.Uint32(b[16:20]),
	}
	if err := decodePayload(f, b[headerSize:headerSize+payloadLen]); err != nil {
		return nil, 0, err
	}
	return f, headerSize + payloadLen, nil
}

// decodePayload parses the payload into f. Blob frames copy the bytes
// verbatim; tensor frames parse the tensor block — dense, or the run
// layout on update frames — which must be consumed exactly: trailing
// bytes inside the declared length are an error, which is what makes the
// encoding canonical.
func decodePayload(f *Frame, p []byte) error {
	if f.Type.blobPayload() {
		if len(p) > 0 {
			f.Blob = append([]byte(nil), p...)
		}
		return nil
	}
	if len(p) < 4 {
		return fmt.Errorf("net: payload too short for tensor count: %d bytes", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p[0:4]))
	if n > maxTensors {
		return fmt.Errorf("net: %d tensors exceeds max %d", n, maxTensors)
	}
	p = p[4:]
	if n > 0 && f.Type == FrameUpdate {
		f.Runs = make([]*tensor.Runs, 0, n)
	} else if n > 0 {
		f.Tensors = make([]*tensor.Tensor, 0, n)
	}
	for i := 0; i < n; i++ {
		dims, elems, rest, err := decodeDims(p)
		if err != nil {
			return fmt.Errorf("net: tensor %d: %w", i, err)
		}
		p = rest
		if f.Type == FrameUpdate {
			r, rest, err := decodeRuns(p, dims, elems)
			if err != nil {
				return fmt.Errorf("net: tensor %d: %w", i, err)
			}
			p = rest
			f.Runs = append(f.Runs, r)
			continue
		}
		if len(p) < 4*elems {
			return fmt.Errorf("net: tensor %d: truncated data (%d of %d bytes)", i, len(p), 4*elems)
		}
		data := make([]float32, elems)
		for e := range data {
			data[e] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*e : 4*e+4]))
		}
		p = p[4*elems:]
		f.Tensors = append(f.Tensors, tensor.FromSlice(data, dims...))
	}
	if len(p) != 0 {
		return fmt.Errorf("net: %d trailing payload bytes", len(p))
	}
	return nil
}

// decodeDims parses a tensor's u8 ndims and dims, returning the shape,
// its element count and the rest of p.
func decodeDims(p []byte) ([]int, int, []byte, error) {
	if len(p) < 1 {
		return nil, 0, nil, fmt.Errorf("missing dim count")
	}
	ndims := int(p[0])
	p = p[1:]
	if ndims > maxDims {
		return nil, 0, nil, fmt.Errorf("%d dims exceeds max %d", ndims, maxDims)
	}
	if len(p) < 4*ndims {
		return nil, 0, nil, fmt.Errorf("truncated dims")
	}
	dims := make([]int, ndims)
	elems := 1
	for d := 0; d < ndims; d++ {
		dims[d] = int(binary.LittleEndian.Uint32(p[4*d : 4*d+4]))
		// Payload length already bounds total data; this guard only
		// prevents the product from overflowing before that check.
		if dims[d] > maxFramePayload {
			return nil, 0, nil, fmt.Errorf("dim %d out of range", dims[d])
		}
		elems *= dims[d]
		if elems > maxFramePayload {
			return nil, 0, nil, fmt.Errorf("element count overflows frame")
		}
	}
	return dims, elems, p[4*ndims:], nil
}

// decodeRuns parses one tensor's run layout — value count, values, run
// table — and validates it as canonical: no +0 value, runs maximal and in
// range, covering exactly the values.
func decodeRuns(p []byte, dims []int, elems int) (*tensor.Runs, []byte, error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("missing value count")
	}
	nv := int(binary.LittleEndian.Uint32(p[0:4]))
	p = p[4:]
	if nv > elems {
		return nil, nil, fmt.Errorf("%d run values exceed %d elements", nv, elems)
	}
	if len(p) < 4*nv {
		return nil, nil, fmt.Errorf("truncated run values (%d of %d bytes)", len(p), 4*nv)
	}
	vals := make([]float32, nv)
	zero := false
	if hostLE {
		zero = !copyNonZero(vals, f32s(p[:4*nv]))
	} else {
		for e := range vals {
			vals[e] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*e : 4*e+4]))
			zero = zero || math.Float32bits(vals[e]) == 0
		}
	}
	if zero {
		return nil, nil, fmt.Errorf("run value is +0 (runs must be maximal)")
	}
	p = p[4*nv:]
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("missing run count")
	}
	nr := int(binary.LittleEndian.Uint32(p[0:4]))
	p = p[4:]
	if nr > nv {
		return nil, nil, fmt.Errorf("%d runs for %d values", nr, nv)
	}
	if len(p) < 8*nr {
		return nil, nil, fmt.Errorf("truncated run table")
	}
	spans := make([]tensor.Span, nr)
	for k := range spans {
		spans[k] = tensor.Span{
			Start: binary.LittleEndian.Uint32(p[8*k : 8*k+4]),
			Len:   binary.LittleEndian.Uint32(p[8*k+4 : 8*k+8]),
		}
	}
	if err := checkSpans(spans, elems, nv); err != nil {
		return nil, nil, err
	}
	return &tensor.Runs{Shape: dims, Spans: spans, Vals: vals}, p[8*nr:], nil
}

// DecodeFrame reads exactly one frame from r. io.EOF at a frame
// boundary is returned as io.EOF; a stream that ends inside a frame is
// io.ErrUnexpectedEOF.
func DecodeFrame(r io.Reader) (*Frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr[20:24]))
	if payloadLen > maxFramePayload {
		return nil, fmt.Errorf("net: payload length %d exceeds max %d", payloadLen, maxFramePayload)
	}
	buf := make([]byte, headerSize+payloadLen)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[headerSize:]); err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	f, _, err := DecodeFrameBytes(buf)
	return f, err
}
