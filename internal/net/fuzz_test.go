package net

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"avgpipe/internal/tensor"
)

// FuzzDecodeFrame drives DecodeFrameBytes with arbitrary bytes. Two
// properties gate the wire codec:
//
//  1. Decode never panics — a peer (or an attacker on the training
//     network) cannot crash a replica with a malformed frame; every
//     rejection is an error.
//  2. The encoding is canonical — any bytes that decode re-encode to
//     exactly the consumed prefix, so frames can be compared,
//     deduplicated, and checksummed by their encoding.
//
// The checked-in corpus under testdata/fuzz/FuzzDecodeFrame seeds every
// frame type plus truncation and corruption shapes; `make fuzz-smoke`
// runs a 30-second fuzz pass in CI on top of the regression corpus.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)/2])    // truncated mid-frame
		f.Add(append(buf, buf...)) // two frames back to back
		f.Add(append(buf, 0xff))   // trailing garbage
		corrupt := append([]byte{}, buf...)
		corrupt[len(corrupt)-1] ^= 0x40 // flipped tensor bit
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add([]byte("AVPW"))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrameBytes(b) // must not panic
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		again, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b[:n]) {
			t.Fatalf("encoding not canonical:\n consumed %x\n re-encoded %x", b[:n], again)
		}
		// Blob payloads with structured inner encodings get the same
		// no-panic + canonical treatment at their own codec layer: a
		// malformed compressed-delta or group-hello blob must be an
		// error, never a panic, and whatever decodes must re-encode to
		// the identical bytes.
		if fr.Type == FrameGroupHello {
			if gh, err := ParseGroupHello(fr.Blob); err == nil {
				re, err := AppendGroupHello(nil, gh)
				if err != nil || !bytes.Equal(re, fr.Blob) {
					t.Fatalf("group hello not canonical: %x (err %v)", fr.Blob, err)
				}
			}
		} else if _, ok := UpdateCodec(fr.Type); ok {
			if pd, err := DecodePackedDeltas(fr.Blob); err == nil {
				re, err := AppendPackedDeltas(nil, pd)
				if err != nil || !bytes.Equal(re, fr.Blob) {
					t.Fatalf("packed deltas not canonical: %x (err %v)", fr.Blob, err)
				}
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in regression seeds under
// testdata/fuzz/FuzzDecodeFrame when AVGPIPE_WRITE_CORPUS=1: the
// group-hello and compressed-update frames with targeted corruptions
// (malformed k, malformed scale, bad topology id), then numbered seeds —
// every valid frame of sampleFrames at the current wire version, and the
// update run layout with each way a run table can fail to be canonical.
// The corruptions must decode to errors, not panics. Checked-in output keeps the
// CI fuzz smoke regression-testing these shapes without regeneration.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("AVGPIPE_WRITE_CORPUS") == "" {
		t.Skip("set AVGPIPE_WRITE_CORPUS=1 to regenerate the fuzz seeds")
	}
	frame := func(f *Frame) []byte {
		buf, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	blobAt := func(f *Frame, off int, to byte) []byte {
		g := *f
		g.Blob = append([]byte(nil), f.Blob...)
		g.Blob[off] = to
		return frame(&g)
	}
	gh := &Frame{Type: FrameGroupHello, Replica: 2, Blob: mustBlob(AppendGroupHello(nil,
		GroupHello{Topology: "ring", N: 4, Codecs: AllCodecsMask()}))}
	q8 := &Frame{Type: FrameUpdateQ8, Replica: 1, Round: 3, Blob: mustPacked(CodecQ8)}
	topk := &Frame{Type: FrameUpdateTopK, Replica: 3, Round: 5, Blob: mustPacked(CodecTopK)}
	v1 := frame(&Frame{Type: FrameUpdate, Replica: 1, Round: 8, Tensors: []*tensor.Tensor{sparseDelta()}})
	v1[4] = 1
	seeds := map[string][]byte{
		"seed-gh-valid":     frame(gh),
		"seed-gh-bad-topo":  blobAt(gh, 1, 9),
		"seed-gh-short":     frame(&Frame{Type: FrameGroupHello, Blob: gh.Blob[:11]}),
		"seed-q8-valid":     frame(q8),
		"seed-q8-nan-scale": blobAt(q8, 14, 0x7f), // scale high byte → NaN-ish
		"seed-q16-valid":    frame(&Frame{Type: FrameUpdateQ16, Replica: 2, Round: 4, Blob: mustPacked(CodecQ16)}),
		"seed-topk-valid":   frame(topk),
		"seed-topk-bad-k":   blobAt(topk, 11, 0xee), // k low byte → k > elems
		"seed-topk-descend": blobAt(topk, 15, 4),    // first index 4, second 4: not ascending
	}
	// Numbered seeds: every sampleFrames frame, then the update run
	// layout — valid, then each way a run table fails to be canonical.
	numbered := make([][]byte, 0, 32)
	for _, f := range sampleFrames() {
		numbered = append(numbered, frame(f))
	}
	numbered = append(numbered,
		updateBytes(7, []float32{1.5, -2, 3, 4, 5, 6, 7}, 2, 3, 11, 4), // valid
		updateBytes(0, nil),                            // valid, no runs
		updateBytes(16, make16(), 0, 16),               // valid, one dense run
		updateBytes(2, []float32{1, 0}, 0, 2),          // +0 value
		updateBytes(2, []float32{1, 2}, 0, 1, 1, 1),    // touching runs
		updateBytes(2, []float32{1, 2}, 5, 1, 2, 1),    // descending runs
		updateBytes(2, []float32{1, 2}, 0, 2, 3, 0),    // empty run
		updateBytes(2, []float32{1, 2}, 15, 2),         // run past the end
		updateBytes(2, []float32{1, 2}, 0xffffffff, 2), // start wraps u32
		updateBytes(3, []float32{1, 2, 3}, 0, 2),       // values uncovered
		updateBytes(17, nil),                           // more values than elements
		v1,                                             // version 1 update
	)
	for i, b := range numbered {
		seeds[fmt.Sprintf("seed-%02d", i)] = b
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	stale, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range stale {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// make16 is a dense 4×4 tensor's values: one run of sixteen.
func make16() []float32 {
	v := make([]float32, 16)
	for i := range v {
		v[i] = float32(i + 1)
	}
	return v
}
