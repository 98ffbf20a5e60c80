package sched

import "fmt"

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
	// from a zero flow and LPWarmStarts those resumed from the previous
	// Newton step's flow, across all replans (see internal/flow; the
	// names predate the flow planner and consumers key on them).
	LPWarmStarts int64
	LPColdStarts int64
}

// Degraded reports whether any replan has ever stepped down the ladder.
func (d DegradationStatus) Degraded() bool {
	return d.MinMaxFallbacks+d.GreedyFallbacks+d.InvalidPlans > 0
}

// DegradationReporter is implemented by schedulers that maintain a
// degradation ladder (FlowTime). The simulator and the RM export the
// status through sim.Result and /metrics when available.
type DegradationReporter interface {
	Degradation() DegradationStatus
}
