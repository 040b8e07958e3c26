package core

import (
	"fmt"
	"strings"
	"time"

	"avgpipe/internal/fault"
	"avgpipe/internal/sched"
)

// SetFaults installs the fault injector the executor consults for
// straggler delays, identifying this pipeline as id in the injector's
// coordinates (nil injector = no faults). Call before RunBatchContext, not
// concurrently with it.
func (p *Pipeline) SetFaults(in *fault.Injector, id int) {
	p.faults = in
	p.pipeID = id
}

// SetWatchdog arms the per-batch liveness monitor: a RunBatchContext
// call during which no op retires for the given window is aborted with
// a *StallError dumping every stage's in-flight schedule position,
// instead of hanging forever on a live-locked schedule. 0 disables the
// watchdog. Size the window well above the slowest single op (including
// injected straggler delays) — it bounds inactivity, not batch length.
func (p *Pipeline) SetWatchdog(window time.Duration) {
	p.watchdog = window
}

// StallError reports a batch killed by the runtime watchdog: no op
// retired within the window, so the schedule was live-locked (typically
// a cross-stage dependency cycle or a peer that stopped producing). The
// per-stage positions say exactly which op each stage was parked on.
type StallError struct {
	// Schedule names the schedule that wedged.
	Schedule string
	// Window is the configured liveness window; Idle is how long the
	// pipeline had actually been inactive when the watchdog fired.
	Window, Idle time.Duration
	// Stages dumps each stage's position at kill time.
	Stages []StallStage
}

// StallStage is one stage's in-flight state at watchdog kill.
type StallStage struct {
	Stage int
	// NextOp indexes the op the stage was executing or waiting to
	// execute; Ops is the stage's total op count.
	NextOp, Ops int
	// Waiting is that op (meaningful only when !Done).
	Waiting sched.Op
	// Done marks a stage that had already retired its whole op list.
	Done bool
}

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: watchdog: schedule %q retired no op in %v (window %v); in-flight:",
		e.Schedule, e.Idle.Round(time.Millisecond), e.Window)
	for _, s := range e.Stages {
		if s.Done {
			fmt.Fprintf(&b, " [stage %d: done]", s.Stage)
		} else {
			fmt.Fprintf(&b, " [stage %d: op %d/%d %s]", s.Stage, s.NextOp, s.Ops, s.Waiting)
		}
	}
	return b.String()
}

// stallError snapshots the walk's per-stage positions into a
// StallError. Called with the executor's mutex held.
func (p *Pipeline) stallError(schedule *sched.Schedule, walk *sched.Walker, idle time.Duration) *StallError {
	e := &StallError{Schedule: schedule.Name, Window: p.watchdog, Idle: idle}
	for s, ops := range schedule.PerGPU {
		i := walk.Pos(s)
		op, _ := walk.Next(s) // the zero Op once the stage is done
		e.Stages = append(e.Stages, StallStage{Stage: s, NextOp: i, Ops: len(ops), Waiting: op, Done: i == len(ops)})
	}
	return e
}
