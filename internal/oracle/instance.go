// Package oracle is the differential verification harness for FlowTime's
// algorithmic core. It provides independent checks — brute-force
// enumeration and max-flow min-cut analysis on tiny instances, an exact
// checker of the flow planner's certificates for instances of any size
// (CheckSolution, CheckRouting), and a decomposition-invariant checker —
// and holds the production flow planner (flow.LexMinMax and
// flow.Shortfall, via SolveFlow and MaxFlow) and deadline.Decompose to
// them, so a silent regression in either cannot sail through tests that
// only compare a solver with itself.
//
// The instance model is deliberately one-dimensional: core.FlowTime plans
// each resource kind independently (the kinds share no variables or
// constraints), so checking one kind at a time loses no generality.
package oracle

import (
	"errors"
	"fmt"
)

// Job is one deadline job projected onto a single resource kind.
type Job struct {
	// Demand is the work volume (resource-slots) to place in the window.
	Demand int64
	// Rel is the first slot of the window (inclusive).
	Rel int64
	// Dl is the end of the window (exclusive).
	Dl int64
	// Cap is the per-slot allocation ceiling (parallelism cap).
	Cap int64
}

// Instance is one single-kind scheduling instance: per-slot capacities
// and a set of windowed jobs. It mirrors exactly the problem
// core.FlowTime hands its planner per resource kind.
type Instance struct {
	// Caps[t] is the capacity of slot t. Zero-capacity slots covered by a
	// window become hard "no allocation" slots, as in the production model.
	Caps []int64
	// Jobs are the windowed demands.
	Jobs []Job
}

// Validate checks the instance shape.
func (in Instance) Validate() error {
	n := int64(len(in.Caps))
	if n == 0 {
		return errors.New("oracle: instance with no slots")
	}
	for t, c := range in.Caps {
		if c < 0 {
			return fmt.Errorf("oracle: slot %d has negative capacity %d", t, c)
		}
	}
	for j, job := range in.Jobs {
		if job.Demand < 0 {
			return fmt.Errorf("oracle: job %d has negative demand %d", j, job.Demand)
		}
		if job.Cap < 0 {
			return fmt.Errorf("oracle: job %d has negative cap %d", j, job.Cap)
		}
		if job.Rel < 0 || job.Dl > n || job.Rel >= job.Dl {
			return fmt.Errorf("oracle: job %d window [%d, %d) invalid for %d slots", j, job.Rel, job.Dl, n)
		}
	}
	return nil
}

// GroupSlots returns the slots that form lexicographic load groups: the
// slots with positive capacity covered by at least one job window — the
// slots a job can load, and so the ones whose levels the skyline
// comparisons read.
func (in Instance) GroupSlots() []int64 {
	covered := make([]bool, len(in.Caps))
	for _, j := range in.Jobs {
		if j.Demand <= 0 {
			continue
		}
		for t := j.Rel; t < j.Dl; t++ {
			covered[t] = true
		}
	}
	var out []int64
	for t, c := range in.Caps {
		if covered[t] && c > 0 {
			out = append(out, int64(t))
		}
	}
	return out
}
