package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"avgpipe/internal/tensor"
)

// checkpointMagic guards against loading unrelated files.
const checkpointMagic = uint32(0x41564750) // "AVGP"

// SaveParams writes the parameters (names, shapes, weights) to w in a
// stable little-endian binary format. Gradients and optimizer state are
// not saved; checkpoints capture the model, not the training run.
func SaveParams(w io.Writer, ps []*Param) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, checkpointMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(ps))); err != nil {
		return err
	}
	for _, p := range ps {
		name := []byte(p.Name)
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		shape := p.W.Shape()
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		for _, v := range p.W.Data() {
			if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadParams reads a checkpoint written by SaveParams into ps. The
// parameter count, order, names, and shapes must match the checkpoint
// exactly; mismatches return an error without partially applying.
func LoadParams(r io.Reader, ps []*Param) error {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("nn: reading checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: not an avgpipe checkpoint (magic %#x)", magic)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	if int(count) != len(ps) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", count, len(ps))
	}
	// Stage into fresh tensors first so a truncated file cannot leave the
	// model half-loaded.
	staged := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: checkpoint param %d is %q, model has %q", i, name, p.Name)
		}
		var dims uint32
		if err := binary.Read(br, binary.LittleEndian, &dims); err != nil {
			return err
		}
		shape := make([]int, dims)
		for j := range shape {
			var d uint32
			if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
				return err
			}
			shape[j] = int(d)
		}
		want := p.W.Shape()
		if len(shape) != len(want) {
			return fmt.Errorf("nn: param %q shape rank mismatch", p.Name)
		}
		for j := range shape {
			if shape[j] != want[j] {
				return fmt.Errorf("nn: param %q shape %v, model has %v", p.Name, shape, want)
			}
		}
		t := tensor.New(shape...)
		for j := range t.Data() {
			var bits uint32
			if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
				return fmt.Errorf("nn: param %q data truncated: %w", p.Name, err)
			}
			t.Data()[j] = math.Float32frombits(bits)
		}
		staged[i] = t
	}
	for i, p := range ps {
		p.W.CopyFrom(staged[i])
		p.MarkDense()
	}
	return nil
}
