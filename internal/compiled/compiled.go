// Package compiled holds the static per-stage op graph the pipeline
// runtime replays instead of interpreting nn.Module call trees.
//
// A stage is lowered once at pipeline build time (internal/nn's
// CompileStage walks the layers) into a Program: three flat op lists —
// forward, grad-input, grad-weight — whose kernel closures were resolved
// at lowering time against the concrete layer types, so the steady-state
// replay performs no interface dispatch and makes no allocation
// decisions. The split of backward into grad-input (produces dx, the op
// the upstream stage waits on) and grad-weight (local parameter
// accumulation) is the 2BP-style split sched.SplitBackward schedules.
//
// Buffers are virtual registers. The builder records which ops read and
// write each register; Finish computes every register's live range over
// the linear forward → grad-input → grad-weight order, and binding an
// execution environment (Program.NewEnv) assigns registers to arena
// slots: equal-sized registers with disjoint live ranges share one
// backing buffer. Slots are allocated once per Env and reused across
// micro-batches; each in-flight micro-batch owns one Env, which is what
// makes compiled stages reentrant — per-micro state (dropout masks,
// layer-norm statistics, recurrent stashes) lives in the Env, never in
// the module.
//
// Register classes:
//
//   - extern: provided per micro-batch by the runtime (the stage input
//     and the incoming output-gradient).
//   - slot: planned, slot-backed, written in place by Into-kernels;
//     zero arena traffic in steady state.
//
// Ownership at stage boundaries: a tensor sent to another stage
// (forward activation, upstream gradient) is borrowed per micro-batch
// and owned by the receiver, so cross-stage buffers are never aliased
// by slot reuse.
package compiled

// Phase tags which replay pass an op belongs to.
type Phase uint8

const (
	// PhaseFwd ops run during the forward replay.
	PhaseFwd Phase = iota
	// PhaseBwdIn ops compute the input gradient (the 2BP grad-input
	// half); their completion unblocks the upstream stage.
	PhaseBwdIn
	// PhaseBwdW ops accumulate parameter gradients (the grad-weight
	// half); they have no cross-stage consumers.
	PhaseBwdW
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseFwd:
		return "fwd"
	case PhaseBwdIn:
		return "bwd_in"
	default:
		return "bwd_w"
	}
}

// Reg identifies a virtual buffer of the graph.
type Reg int

// NoReg marks the absence of a register (e.g. the input gradient of an
// embedding layer, which has no differentiable input).
const NoReg Reg = -1

// Shape computes a register's concrete shape from the stage's input
// shape; lowerings compose these so binding an Env for any micro-batch
// geometry resolves every buffer size.
type Shape func(in []int) []int

// AuxID identifies a per-Env auxiliary cell for non-tensor per-micro
// state (index lists, normalization statistics, cached row views).
type AuxID int

// Op is one compiled node: a phase tag, a diagnostic name, and the
// kernel closure resolved at lowering time. Fn captures the concrete
// layer parameters and register indices; replay is a plain loop of
// function-pointer calls.
type Op struct {
	Phase Phase
	Name  string
	Fn    func(*Env)
}

type regClass uint8

const (
	regExtern regClass = iota
	regSlot
	// regBorrowOut is a slot register promoted to per-micro arena borrow
	// because its tensor crosses the stage boundary (ownership transfers
	// to the consuming stage, so its storage cannot be a reused slot).
	regBorrowOut
)

type regInfo struct {
	class regClass
	shape Shape
	// def and lastUse are positions in the linear fwd→bwdIn→bwdW order
	// (-1 = never written/read).
	def, lastUse int
}

// Program is one stage's compiled op graph plus its buffer plan. It is
// immutable after Finish; all per-micro-batch state lives in Envs.
type Program struct {
	fwd, bwdIn, bwdW []Op
	regs             []regInfo
	aux              []func(in []int) any

	inReg, outReg, dInReg, dOutReg Reg
	emitOut, emitDX                bool
	// outCopy/dxCopy: the boundary register is still read by backward
	// ops after shipping, so the Env ships a per-micro borrowed copy and
	// keeps the slot intact.
	outCopy, dxCopy bool
}

// Ops returns the op count of each phase (forward, grad-input,
// grad-weight) — what tests and benchmarks report.
func (p *Program) Ops() (fwd, bwdIn, bwdW int) {
	return len(p.fwd), len(p.bwdIn), len(p.bwdW)
}

// OpNames returns every op's name in replay order — forward, grad-input,
// grad-weight — so tests can see how a stage lowered.
func (p *Program) OpNames() []string {
	var names []string
	for _, ops := range [][]Op{p.fwd, p.bwdIn, p.bwdW} {
		for _, op := range ops {
			names = append(names, op.Name)
		}
	}
	return names
}
