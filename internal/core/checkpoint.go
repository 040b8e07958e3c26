package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"avgpipe/internal/nn"
	"avgpipe/internal/optim"
)

// Checkpoint layout inside a directory:
//
//	reference.bin   reference model weights (nn.SaveParams format)
//	replica-P.bin   pipeline P's post-dilution weights (same format)
//	optim-P.bin     pipeline P's optimizer state (only for Stateful optimizers)
//	meta.json       CheckpointInfo — written last, so its presence marks
//	                the checkpoint complete
//
// Every .bin file is written by one codec (nn.StateWriter): a magic, then
// strings and tensor records, each record a u32 rank, u32 dims and the
// coefficients' little-endian f32 bits. Restore reverses it bit-exactly:
// the averager's delta baselines are re-seeded to the saved replica
// weights, every round below the saved one is closed, and the data
// streams are fast-forwarded by replaying the round counter — so the
// round after a restore produces parameters identical to the round the
// uninterrupted run would have produced.

// checkpointMetaName is the commit marker; a directory without it is not
// a complete checkpoint.
const checkpointMetaName = "meta.json"

// CheckpointInfo is a checkpoint's commit marker, meta.json: the round
// counter, geometry, optimizer and detached set — what a reader (resume,
// serving tier) needs to decide whether and how to load it.
type CheckpointInfo struct {
	Round     int    `json:"round"`
	Pipelines int    `json:"pipelines"`
	Seed      int64  `json:"seed"`
	Optimizer string `json:"optimizer"`
	Detached  []bool `json:"detached,omitempty"`
	// Dist marks a per-replica checkpoint of a multi-process job: it
	// holds the reference copy plus ReplicaID's pipeline and optimizer
	// state only, and must be restored by the same replica.
	Dist      bool `json:"dist,omitempty"`
	ReplicaID int  `json:"replica_id,omitempty"`
}

// ReadCheckpointInfo reads dir's commit marker. A directory without one
// is not a complete checkpoint and returns an error, which is what
// makes polling a directory a live training job writes into safe: a
// crash mid-save never yields a readable marker.
func ReadCheckpointInfo(dir string) (*CheckpointInfo, error) {
	buf, err := os.ReadFile(filepath.Join(dir, checkpointMetaName))
	if err != nil {
		return nil, fmt.Errorf("core: not a complete checkpoint (missing %s): %w", checkpointMetaName, err)
	}
	var info CheckpointInfo
	if err := json.Unmarshal(buf, &info); err != nil {
		return nil, fmt.Errorf("core: checkpoint meta: %w", err)
	}
	return &info, nil
}

// LoadReference loads the shared reference model — the elastic
// averager's statistically meaningful copy, the one an inference tier
// serves — from a completed checkpoint into ps, returning the commit
// marker. The parameter layout (count, names, shapes) must match the
// checkpointed model exactly; mismatches error without partially
// applying.
func LoadReference(dir string, ps []*nn.Param) (*CheckpointInfo, error) {
	info, err := ReadCheckpointInfo(dir)
	if err != nil {
		return nil, err
	}
	if err := readFile(dir, "reference.bin", nn.LoadParams, ps); err != nil {
		return nil, err
	}
	return info, nil
}

// SaveCheckpoint serializes the full training state — reference model,
// every replica's weights and optimizer state, and the round counter —
// into dir (created if needed). The averager is drained first so the
// saved reference includes every submitted update. meta.json is written
// last as the commit marker: a crash mid-save leaves a directory that
// ReadCheckpointInfo rejects rather than a corrupt resume point.
//
// In dist mode each process writes a per-replica checkpoint: its
// reference copy plus the local pipeline's weights and optimizer state.
// A whole-job resume restores every replica from its own directory at
// the same round; checkpoint at a round boundary (after WaitRound has
// closed the round on every process) so the N reference copies agree.
func (t *Trainer) SaveCheckpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	if err := writeFile(dir, "reference.bin", nn.SaveParams, t.ReferenceSnapshot()); err != nil {
		return err
	}
	for p, pl := range t.pipelines {
		if !t.local(p) {
			continue // a peer process checkpoints this replica
		}
		if err := writeFile(dir, fmt.Sprintf("replica-%d.bin", p), nn.SaveParams, pl.Params()); err != nil {
			return err
		}
		if st, ok := t.opts[p].(optim.Stateful); ok {
			if err := writeFile(dir, fmt.Sprintf("optim-%d.bin", p), st.SaveState, pl.Params()); err != nil {
				return err
			}
		}
	}
	self := 0
	if t.cfg.Dist != nil {
		self = t.cfg.Dist.ReplicaID
	}
	meta := CheckpointInfo{
		Round:     t.round,
		Pipelines: t.cfg.Pipelines,
		Seed:      t.cfg.Seed,
		Optimizer: t.opts[self].Name(),
		Detached:  append([]bool(nil), t.detached...),
		Dist:      t.cfg.Dist != nil,
		ReplicaID: self,
	}
	buf, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("core: checkpoint meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointMetaName), append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("core: checkpoint meta: %w", err)
	}
	return nil
}

// Restore loads a checkpoint written by SaveCheckpoint into this
// trainer, which must have been built with the same config (geometry,
// task, seed, optimizer). On success the trainer resumes at the saved
// round with bit-exact state: replica weights, optimizer moments, the
// reference model, the averager's delta baselines, and the data streams
// fast-forwarded to where the saved run left them. Call before training
// starts, not mid-round.
// In dist mode each process restores its own per-replica checkpoint
// (written by the same replica id); the whole job resumes at the saved
// round with every process restored to the same boundary, so rounds
// after the resume reproduce an uninterrupted run.
func (t *Trainer) Restore(dir string) error {
	meta, err := ReadCheckpointInfo(dir)
	if err != nil {
		return err
	}
	if meta.Pipelines != t.cfg.Pipelines {
		return fmt.Errorf("core: checkpoint has %d pipelines, trainer has %d", meta.Pipelines, t.cfg.Pipelines)
	}
	if meta.Seed != t.cfg.Seed {
		return fmt.Errorf("core: checkpoint seed %d, trainer seed %d — data streams would diverge", meta.Seed, t.cfg.Seed)
	}
	self := 0
	if t.cfg.Dist != nil {
		self = t.cfg.Dist.ReplicaID
	}
	if meta.Dist != (t.cfg.Dist != nil) {
		return fmt.Errorf("core: checkpoint dist=%v, trainer dist=%v", meta.Dist, t.cfg.Dist != nil)
	}
	if meta.Dist && meta.ReplicaID != self {
		return fmt.Errorf("core: checkpoint belongs to replica %d, this process is replica %d", meta.ReplicaID, self)
	}
	if meta.Optimizer != t.opts[self].Name() {
		return fmt.Errorf("core: checkpoint optimizer %q, trainer uses %q", meta.Optimizer, t.opts[self].Name())
	}
	if err := readFile(dir, "reference.bin", nn.LoadParams, t.evalModel.Params()); err != nil {
		return err
	}
	// SetReference re-seeds every delta baseline to the reference; the
	// per-replica SeedReplica below then restores each baseline to the
	// replica's true post-dilution weights. The reference holds every
	// round below the saved one, so those close unapplied.
	t.avg.SetReference(t.evalModel.Params())
	t.avg.closeBelow(meta.Round)
	for p, pl := range t.pipelines {
		if !t.local(p) {
			continue
		}
		if err := readFile(dir, fmt.Sprintf("replica-%d.bin", p), nn.LoadParams, pl.Params()); err != nil {
			return err
		}
		t.avg.SeedReplica(p, pl.Params())
		if st, ok := t.opts[p].(optim.Stateful); ok {
			if err := readFile(dir, fmt.Sprintf("optim-%d.bin", p), st.LoadState, pl.Params()); err != nil {
				return err
			}
		}
	}
	// Replaying the detached set only makes sense when this process owns
	// every replica; in dist mode peer liveness is discovered live (the
	// heal supervisor detaches peers that stay silent).
	if t.cfg.Dist == nil {
		for p, det := range meta.Detached {
			if det {
				t.avg.Detach(p)
				t.detached[p] = true
			}
		}
	}
	t.round = meta.Round
	t.seekStreams(meta.Round)
	return nil
}

// writeFile creates dir/name and writes ps into it with save: their
// weights (nn.SaveParams) or an optimizer's state over them.
func writeFile(dir, name string, save func(io.Writer, []*nn.Param) error, ps []*nn.Param) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err == nil {
		err = save(f, ps)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", name, err)
	}
	return nil
}

// readFile reads dir/name into ps with load, writeFile's counterpart.
func readFile(dir, name string, load func(io.Reader, []*nn.Param) error, ps []*nn.Param) error {
	f, err := os.Open(filepath.Join(dir, name))
	if err == nil {
		err = load(f, ps)
		f.Close()
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", name, err)
	}
	return nil
}
