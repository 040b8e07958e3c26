package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"avgpipe/internal/tensor"
)

// checkpointMagic guards against loading unrelated files.
const checkpointMagic = uint32(0x41564750) // "AVGP"

// StateWriter writes saved training state — model weights here,
// optimizer state in package optim — as little-endian values, strings
// (u32 length, bytes) and tensor records (u32 rank, u32 dims, the
// coefficients' f32 bits). It buffers, and keeps the first error: every
// later write is a no-op, and Flush returns it.
type StateWriter struct {
	w   *bufio.Writer
	err error
}

// NewStateWriter returns a StateWriter over w.
func NewStateWriter(w io.Writer) *StateWriter { return &StateWriter{w: bufio.NewWriter(w)} }

// Put writes v, a fixed-size value or a slice of them.
func (s *StateWriter) Put(v any) {
	if s.err == nil {
		s.err = binary.Write(s.w, binary.LittleEndian, v)
	}
}

// String writes str's length, then its bytes.
func (s *StateWriter) String(str string) {
	s.Put(uint32(len(str)))
	s.Put([]byte(str))
}

// Tensor writes t as one tensor record: its header, then all of its
// coefficients in one call.
func (s *StateWriter) Tensor(t *tensor.Tensor) {
	head := []uint32{uint32(len(t.Shape()))}
	for _, d := range t.Shape() {
		head = append(head, uint32(d))
	}
	s.Put(head)
	s.Put(t.Data())
}

// Flush writes out what is buffered and returns the first error.
func (s *StateWriter) Flush() error {
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.err
}

// StateReader reads what a StateWriter wrote. It keeps the first error:
// every later read is a no-op that yields a zero value, and Err returns
// it. Tensor records are read into fresh tensors, so a caller that
// applies what it read only once Err is nil never applies part of a
// truncated or mis-shaped file.
type StateReader struct {
	r   *bufio.Reader
	err error
}

// NewStateReader returns a StateReader over r.
func NewStateReader(r io.Reader) *StateReader { return &StateReader{r: bufio.NewReader(r)} }

// Err returns the first error a read met.
func (s *StateReader) Err() error { return s.err }

// Get reads into v, a pointer to a fixed-size value or a slice of them.
func (s *StateReader) Get(v any) {
	if s.err == nil {
		s.err = binary.Read(s.r, binary.LittleEndian, v)
	}
}

// String reads a string written by StateWriter.String.
func (s *StateReader) String() string {
	var n uint32
	s.Get(&n)
	if s.err != nil {
		return ""
	}
	b := make([]byte, n)
	s.Get(b)
	return string(b)
}

// Tensor reads one tensor record, which must have p's shape, into a
// fresh tensor; it returns nil on error.
func (s *StateReader) Tensor(p *Param) *tensor.Tensor {
	want := p.W.Shape()
	var rank uint32
	if s.Get(&rank); s.err == nil && int(rank) != len(want) {
		s.err = fmt.Errorf("param %q: tensor rank %d, model has %d", p.Name, rank, len(want))
	}
	dims := make([]uint32, len(want))
	if s.Get(dims); s.err != nil {
		return nil
	}
	for i, d := range dims {
		if int(d) != want[i] {
			s.err = fmt.Errorf("param %q: tensor shape %v, model has %v", p.Name, dims, want)
			return nil
		}
	}
	t := tensor.New(want...)
	if s.Get(t.Data()); s.err != nil {
		s.err = fmt.Errorf("param %q: tensor data truncated: %w", p.Name, s.err)
		return nil
	}
	return t
}

// SaveParams writes the parameters (names, shapes, weights) to w in a
// stable little-endian binary format. Gradients and optimizer state are
// not saved; checkpoints capture the model, not the training run.
func SaveParams(w io.Writer, ps []*Param) error {
	s := NewStateWriter(w)
	s.Put([]uint32{checkpointMagic, uint32(len(ps))})
	for _, p := range ps {
		s.String(p.Name)
		s.Tensor(p.W)
	}
	return s.Flush()
}

// LoadParams reads a checkpoint written by SaveParams into ps. The
// parameter count, order, names, and shapes must match the checkpoint
// exactly; mismatches return an error without partially applying.
func LoadParams(r io.Reader, ps []*Param) error {
	s := NewStateReader(r)
	var magic uint32
	if s.Get(&magic); s.err != nil {
		return fmt.Errorf("nn: reading checkpoint header: %w", s.err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: not an avgpipe checkpoint (magic %#x)", magic)
	}
	var count uint32
	if s.Get(&count); s.err == nil && int(count) != len(ps) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", count, len(ps))
	}
	staged := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		if name := s.String(); s.err == nil && name != p.Name {
			return fmt.Errorf("nn: checkpoint param %d is %q, model has %q", i, name, p.Name)
		}
		staged[i] = s.Tensor(p)
	}
	if s.err != nil {
		return fmt.Errorf("nn: %w", s.err)
	}
	for i, p := range ps {
		p.W.CopyFrom(staged[i])
		p.MarkDense()
	}
	return nil
}
