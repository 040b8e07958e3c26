package pipesim

import (
	"fmt"

	"avgpipe/internal/sched"
)

// ChimeraConfig configures a bidirectional-pipeline simulation (Chimera,
// Li & Hoefler, SC'21) — the related-work design the paper positions
// AvgPipe against. Chimera runs two pipelines over the same GPUs in
// opposite directions: the "down" pipeline places stage s on GPU s, the
// "up" pipeline places stage s on GPU K−1−s. Each direction processes
// half the micro-batches, so the two pipelines' bubbles interleave and
// largely cancel, at the cost of every GPU holding two stage replicas.
type ChimeraConfig struct {
	// Base carries the workload, cluster, stages, Micro (total
	// micro-batches per batch; must be even), and Batches. Pipelines and
	// Schedule are ignored; Chimera's structure fixes both. Recompute,
	// RefModel and Obs apply as in Run.
	Base Config
}

// RunChimera simulates the bidirectional schedule and returns a Result
// comparable with Run's, whose Config echoes cfg.Base. It is Run's
// simulation of two 1F1B pipelines of Micro/2 micro-batches, each on
// half the batch, with the second placed in reverse (sched.Interleave).
func RunChimera(cfg ChimeraConfig) (*Result, error) {
	base := cfg.Base
	k := len(base.Stages)
	if k != base.Cluster.Size() {
		return nil, fmt.Errorf("pipesim: chimera needs one stage per GPU")
	}
	if base.Micro%2 != 0 {
		return nil, fmt.Errorf("pipesim: chimera needs an even micro-batch count, got %d", base.Micro)
	}
	if base.Micro <= 0 || base.Batches <= 0 || base.Workload.BatchSize%base.Micro != 0 {
		return nil, fmt.Errorf("pipesim: invalid chimera config")
	}
	half := *base.Workload
	half.BatchSize /= 2
	pair := base
	pair.Workload, pair.Micro, pair.Pipelines = &half, base.Micro/2, 2
	pair.Schedule = sched.OneFOneB(k, pair.Micro, base.Batches)
	pair.Schedule.Name = "Chimera"
	res, err := simulate(pair, true)
	if err != nil {
		return nil, err
	}
	res.Config = base
	return res, nil
}
