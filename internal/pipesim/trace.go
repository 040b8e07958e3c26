package pipesim

import (
	"fmt"
	"io"

	"avgpipe/internal/obs"
)

// TraceEvent is one Chrome-trace event. It is an alias of the obs
// package's event type: the simulator and the real runtime
// (core.Pipeline.WriteTrace) share one obs.Tracer implementation, so
// simulated and measured traces are directly diff-able.
type TraceEvent = obs.TraceEvent

// Tracer renders the simulation's per-GPU timelines into an obs.Tracer:
// each GPU is a track; busy intervals become spans named after the op
// they executed, annotated with the utilization level, and the gaps read
// directly as bubbles/communication stalls.
func (r *Result) Tracer() *obs.Tracer {
	t := obs.NewTracer("pipesim.Result")
	t.Process(1, "simulated pipeline")
	for g, st := range r.PerGPU {
		t.Thread(1, g+1, fmt.Sprintf("GPU %d", g+1))
		for i, iv := range st.Timeline {
			name := iv.Label
			if name == "" {
				name = fmt.Sprintf("op %d", i)
			}
			t.Span(1, g+1, name, "compute", iv.Start*1e6, (iv.End-iv.Start)*1e6,
				map[string]any{"util": iv.Util})
		}
	}
	t.SetMeta("batchTime_s", r.BatchTime)
	t.SetMeta("makespan_s", r.Makespan)
	return t
}

// WriteTrace renders the simulation as a Chrome trace (load in
// chrome://tracing or ui.perfetto.dev) through the shared obs.Tracer.
func (r *Result) WriteTrace(w io.Writer) error {
	if err := r.Tracer().Write(w); err != nil {
		return fmt.Errorf("pipesim: write trace: %w", err)
	}
	return nil
}
