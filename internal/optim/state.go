package optim

import (
	"fmt"
	"io"

	"avgpipe/internal/nn"
	"avgpipe/internal/tensor"
)

// Stateful is implemented by optimizers whose internal state (momentum,
// moments, iterate averages) must survive checkpoint/restore for a
// resumed run to be bit-exact. State is keyed positionally by the params
// slice, so Save and Load must be given the same parameter order — which
// nn.SaveParams/LoadParams already enforce for the weights themselves.
type Stateful interface {
	Optimizer
	SaveState(w io.Writer, params []*nn.Param) error
	LoadState(r io.Reader, params []*nn.Param) error
}

// stateMagic guards optimizer-state files, distinct from the nn
// checkpoint magic so the two cannot be confused.
const stateMagic = uint32(0x4156474f) // "AVGO"

// stateMap is a per-param tensor map an optimizer keeps.
type stateMap = map[*nn.Param]*tensor.Tensor

// optState declares what an optimizer saves, in file order: its name,
// its step counter if it keeps one, then its per-param maps. lazy marks
// an optimizer whose maps exist only once a step needs them (SGD's
// velocity): a file with no entry for one leaves it as it is.
type optState struct {
	name string
	step *int
	maps []*stateMap
	lazy bool
}

// saveState writes st: the magic, the name, the step counter as a u64,
// then for each map one optional tensor per param in params order — a
// presence byte, then the tensor record.
func saveState(w io.Writer, params []*nn.Param, st optState) error {
	s := nn.NewStateWriter(w)
	s.Put(stateMagic)
	s.String(st.name)
	if st.step != nil {
		s.Put(uint64(*st.step))
	}
	for _, m := range st.maps {
		for _, p := range params {
			t, ok := (*m)[p]
			s.Put(ok)
			if ok {
				s.Tensor(t)
			}
		}
	}
	return s.Flush()
}

// loadState reads what saveState wrote for st and installs it only once
// all of it has been read, so a truncated or mismatched file leaves the
// optimizer as it was.
func loadState(r io.Reader, params []*nn.Param, st optState) error {
	s := nn.NewStateReader(r)
	var magic uint32
	if s.Get(&magic); s.Err() != nil {
		return fmt.Errorf("optim: reading state header: %w", s.Err())
	}
	if magic != stateMagic {
		return fmt.Errorf("optim: not an optimizer state file (magic %#x)", magic)
	}
	if got := s.String(); s.Err() == nil && got != st.name {
		return fmt.Errorf("optim: state file is for %q, optimizer is %q", got, st.name)
	}
	var step uint64
	if st.step != nil {
		s.Get(&step)
	}
	maps := make([]stateMap, len(st.maps))
	for i := range maps {
		maps[i] = make(stateMap, len(params))
		for _, p := range params {
			var present bool
			if s.Get(&present); present {
				maps[i][p] = s.Tensor(p)
			}
		}
	}
	if s.Err() != nil {
		return fmt.Errorf("optim: %w", s.Err())
	}
	if st.step != nil {
		*st.step = int(step)
	}
	for i, m := range maps {
		if len(m) > 0 || !st.lazy {
			*st.maps[i] = m
		}
	}
	return nil
}

func (s *SGD) state() optState {
	return optState{name: s.Name(), maps: []*stateMap{&s.velocity}, lazy: true}
}

func (a *Adam) state() optState {
	return optState{name: a.Name(), step: &a.t, maps: []*stateMap{&a.m, &a.v}}
}

func (a *AdaGrad) state() optState { return optState{name: a.Name(), maps: []*stateMap{&a.g2}} }

func (a *ASGD) state() optState {
	return optState{name: a.Name(), step: &a.t, maps: []*stateMap{&a.avg}}
}

func (e *EASGD) state() optState { return optState{name: e.Name(), maps: []*stateMap{&e.center}} }

// SaveState implements Stateful: per-param momentum velocities.
func (s *SGD) SaveState(w io.Writer, ps []*nn.Param) error { return saveState(w, ps, s.state()) }

// LoadState implements Stateful.
func (s *SGD) LoadState(r io.Reader, ps []*nn.Param) error { return loadState(r, ps, s.state()) }

// SaveState implements Stateful: the step counter and both moment
// estimates, so bias correction resumes where it left off.
func (a *Adam) SaveState(w io.Writer, ps []*nn.Param) error { return saveState(w, ps, a.state()) }

// LoadState implements Stateful.
func (a *Adam) LoadState(r io.Reader, ps []*nn.Param) error { return loadState(r, ps, a.state()) }

// SaveState implements Stateful: the accumulated squared gradients.
func (a *AdaGrad) SaveState(w io.Writer, ps []*nn.Param) error { return saveState(w, ps, a.state()) }

// LoadState implements Stateful.
func (a *AdaGrad) LoadState(r io.Reader, ps []*nn.Param) error { return loadState(r, ps, a.state()) }

// SaveState implements Stateful: the step counter and iterate averages.
func (a *ASGD) SaveState(w io.Writer, ps []*nn.Param) error { return saveState(w, ps, a.state()) }

// LoadState implements Stateful.
func (a *ASGD) LoadState(r io.Reader, ps []*nn.Param) error { return loadState(r, ps, a.state()) }

// SaveState implements Stateful: the per-param center variables.
func (e *EASGD) SaveState(w io.Writer, ps []*nn.Param) error { return saveState(w, ps, e.state()) }

// LoadState implements Stateful.
func (e *EASGD) LoadState(r io.Reader, ps []*nn.Param) error { return loadState(r, ps, e.state()) }
