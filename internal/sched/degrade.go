package sched

import (
	"fmt"
	"time"

	"flowtime/internal/flow"
	"flowtime/internal/resource"
)

// This file defines the degradation-ladder vocabulary shared by planning
// schedulers, the simulator, the resource manager, and the benches. The
// ladder guarantees the planner always returns a valid plan: when the
// optimal pipeline cannot finish (integer overflow, an internal error or
// panic in the planner, an invalid plan), planning steps down a rung
// instead of failing the scheduling slot.

// DegradeLevel is a rung of the planner degradation ladder, ordered from
// best to cheapest.
type DegradeLevel int

const (
	// DegradeNone: the full lexicographic min-max pipeline ran.
	DegradeNone DegradeLevel = iota
	// DegradeMinMax: the lexicographic refinement was cut to a single
	// min-θ round (optimal peak load, no deeper flattening). FlowTime's
	// flow planner has no such middle rung and never reports it; the
	// level and its counter stay so status and metric consumers keep
	// their shape.
	DegradeMinMax
	// DegradeGreedy: planning skipped the optimizing planner entirely and
	// used the deterministic greedy EDF water-fill.
	DegradeGreedy
)

// String returns the rung's display name.
func (l DegradeLevel) String() string {
	switch l {
	case DegradeNone:
		return "full"
	case DegradeMinMax:
		return "minmax"
	case DegradeGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// DegradationStatus is a planning scheduler's ladder telemetry.
type DegradationStatus struct {
	// Level is the rung the current plan was built at (the highest rung
	// needed across resource kinds).
	Level DegradeLevel
	// Reason records why the ladder last stepped down; empty while the
	// current plan is at the full level.
	Reason string
	// MinMaxFallbacks and GreedyFallbacks count replans whose final level
	// was the respective rung.
	MinMaxFallbacks int64
	GreedyFallbacks int64
	// InvalidPlans counts plans rejected by post-validation and rebuilt at
	// the greedy rung.
	InvalidPlans int64
	// LPColdStarts counts the planner's max-flow computations started
	// from a zero flow and LPWarmStarts those resumed from a parent's flow
	// above a cut, across all replans (see internal/flow; the names
	// predate the flow planner and consumers key on them).
	LPWarmStarts int64
	LPColdStarts int64
}

// DegradationReporter is implemented by schedulers that maintain a
// degradation ladder (FlowTime). The simulator and the RM export the
// status through sim.Result and /metrics when available.
type DegradationReporter interface {
	Degradation() DegradationStatus
}

// The causes a planning scheduler replans for.
const (
	// ReplanUrgent: there is no plan yet, or a live deadline job whose
	// window is open is not in it.
	ReplanUrgent = "urgent"
	// ReplanCapacity: the capacity the plan assumed changed under it.
	ReplanCapacity = "capacity"
	// ReplanDeferred: demand the last plan could not fit is due a retry.
	ReplanDeferred = "deferred"
	// ReplanQuality: work the plan holds finished early, is gone or grew,
	// or the ad-hoc gate admitted more, so capacity is worth reflowing.
	ReplanQuality = "quality"
)

// ReplanStats is what one replan cost and found: the slot it ran at, its
// cause (one of the Replan constants), the wall time of its stages —
// stage A's max flows, stage B's skylines, the integral repair — each
// resource kind's flow work, Work[i] resource.Kinds()[i]'s, and stage A's
// verdict after the slack decision: the workflows, by ID, with a job it
// left short, and [CutFrom, CutTo) the absolute slots its min cuts put on
// the source side (flow.Routing's SlotCut).
type ReplanStats struct {
	Slot                   int64
	Cause                  string
	StageA, StageB, Repair time.Duration
	Work                   [resource.NumKinds]flow.Work
	AtRisk                 []string
	CutFrom, CutTo         int64
}

// ReplanReporter is implemented by planning schedulers that report the
// replan their last Assign ran (FlowTime): the zero ReplanStats when it ran
// none. The RM's tick record reads it after every Assign.
type ReplanReporter interface {
	LastReplan() ReplanStats
}
