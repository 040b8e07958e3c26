package sched

import (
	"fmt"
	"strings"
)

// Plan names a schedule family and generates its concrete single-flush
// Schedule for any pipeline geometry. The real runtime stores a Plan and
// materializes the Schedule once the micro-batch count is known, so one
// Plan value covers a whole training run; changing the schedule a
// pipeline executes is purely a matter of handing it a different Plan.
type Plan struct {
	// Name identifies the family ("AFAB", "1F1B", "AFP", ...).
	Name string
	// Make builds the schedule for k stages and m micro-batches per
	// batch (one flush: Batches == 1).
	Make func(k, m int) *Schedule
}

// AFABPlan generates all-forward-all-backward schedules.
func AFABPlan() Plan {
	return Plan{Name: "AFAB", Make: func(k, m int) *Schedule { return AFAB(k, m, 1) }}
}

// GPipePlan generates GPipe schedules (AFAB without recomputation).
func GPipePlan() Plan {
	return Plan{Name: "GPipe", Make: func(k, m int) *Schedule { return GPipe(k, m, 1) }}
}

// OneFOneBPlan generates synchronous 1F1B (early-backward) schedules.
func OneFOneBPlan() Plan {
	return Plan{Name: "1F1B", Make: func(k, m int) *Schedule { return OneFOneB(k, m, 1) }}
}

// DapplePlan generates Dapple schedules (1F1B on a linear partition).
func DapplePlan() Plan {
	return Plan{Name: "Dapple", Make: func(k, m int) *Schedule { return Dapple(k, m, 1) }}
}

// AFPPlan generates 1F1B + advance-forward-propagation schedules. A nil
// advance means zeros everywhere, i.e. pure 1F1B; otherwise the vector
// length must equal the stage count at Make time.
func AFPPlan(advance []int) Plan {
	return Plan{Name: "AFP", Make: func(k, m int) *Schedule {
		adv := advance
		if adv == nil {
			adv = make([]int, k)
		}
		return AFP(k, m, 1, adv)
	}}
}

// PlanByName resolves a schedule family from its common names, for CLI
// flags and config files. advance is consumed only by the AFP family; a
// non-nil advance with any other family is an error, not dropped.
func PlanByName(name string, advance []int) (Plan, error) {
	var p Plan
	switch strings.ToLower(name) {
	case "afab":
		p = AFABPlan()
	case "gpipe":
		p = GPipePlan()
	case "1f1b", "onefoneb":
		p = OneFOneBPlan()
	case "dapple":
		p = DapplePlan()
	case "", "afp":
		return AFPPlan(advance), nil
	default:
		return Plan{}, fmt.Errorf("sched: unknown schedule %q (want afab, gpipe, 1f1b, dapple, or afp)", name)
	}
	if advance != nil {
		return Plan{}, fmt.Errorf("sched: advance %v applies to the afp schedule only, not %q", advance, name)
	}
	return p, nil
}
