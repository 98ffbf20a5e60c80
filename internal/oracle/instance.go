// Package oracle is the differential verification harness for FlowTime's
// algorithmic core. It provides independent reference implementations —
// brute-force enumeration and max-flow min-cut analysis on tiny
// instances, an interior-feasibility checker for instances of any size,
// and a decomposition-invariant checker — and cross-checks the production
// flow planner (flow.LexMinMax, via SolveFlow), the reference simplex
// (lp.LexMinMax, via SolveLP) and deadline.Decompose against them and
// against each other, so a silent regression in any cannot sail through
// tests that only compare a solver with itself.
//
// The instance model is deliberately one-dimensional: core.FlowTime plans
// each resource kind independently (the kinds share no variables or
// constraints), so checking one kind at a time loses no generality.
package oracle

import (
	"errors"
	"fmt"

	"flowtime/internal/lp"
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

// LPResult is the outcome of SolveLP.
type LPResult struct {
	// Feasible is false when the LP reported ErrInfeasible.
	Feasible bool
	// Alloc[j][t] is job j's allocation in slot t (zero outside windows).
	Alloc [][]float64
	// GroupSlot[g] is the slot index of load group g.
	GroupSlot []int64
	// Levels[g] is the normalized load of group g, as reported by the
	// solver (not recomputed).
	Levels []float64
	// Rounds is the number of min-θ rounds LexMinMax used.
	Rounds int
	// Exact[g] marks the groups a level-capped flow froze at a solved
	// level (SolveFlowLevels only; nil from the simplex).
	Exact []bool
}

// SolveLP runs the reference simplex on the instance: it builds the
// stage-B model of the paper's formulation — a variable
// per (job, window slot) bounded by the job's cap, an exact-demand row
// per job, a load group per covered positive-capacity slot, and a
// hard ≤0 row per covered zero-capacity slot — and solves it with the
// lexicographic min-max, exactly (maxRounds 0) or capped at maxRounds
// min-θ rounds as lp.LexMinMax defines.
func SolveLP(in Instance, maxRounds int) (*LPResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	model := lp.NewModel()
	nSlots := int64(len(in.Caps))
	vars := make([][]lp.Var, len(in.Jobs))
	slotTerms := make([][]lp.Term, nSlots)
	for ji, job := range in.Jobs {
		if job.Demand <= 0 {
			continue
		}
		n := job.Dl - job.Rel
		vs := make([]lp.Var, n)
		terms := make([]lp.Term, 0, n)
		for s := int64(0); s < n; s++ {
			v, err := model.NewVar("", 0, float64(job.Cap))
			if err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			vs[s] = v
			terms = append(terms, lp.Term{Var: v, Coef: 1})
			slotTerms[job.Rel+s] = append(slotTerms[job.Rel+s], lp.Term{Var: v, Coef: 1})
		}
		vars[ji] = vs
		if err := model.AddConstraint(terms, lp.EQ, float64(job.Demand)); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}

	var groups []lp.LoadGroup
	var groupSlot []int64
	for t := int64(0); t < nSlots; t++ {
		if len(slotTerms[t]) == 0 {
			continue
		}
		if in.Caps[t] <= 0 {
			if err := model.AddConstraint(slotTerms[t], lp.LE, 0); err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			continue
		}
		groups = append(groups, lp.LoadGroup{Terms: slotTerms[t], Cap: float64(in.Caps[t])})
		groupSlot = append(groupSlot, t)
	}

	res := &LPResult{GroupSlot: groupSlot, Alloc: make([][]float64, len(in.Jobs))}
	for ji := range res.Alloc {
		res.Alloc[ji] = make([]float64, nSlots)
	}
	if len(groups) == 0 {
		// No load to flatten: the instance is feasible iff every job has
		// zero demand (any positive demand would have produced a group or
		// be pinned to zero-capacity slots by a ≤0 row).
		for _, job := range in.Jobs {
			if job.Demand > 0 {
				return res, nil // infeasible: demand with no usable slot
			}
		}
		res.Feasible = true
		return res, nil
	}

	mm, err := lp.LexMinMax(model, groups, maxRounds)
	if errors.Is(err, lp.ErrInfeasible) {
		return res, nil
	}
	if err != nil {
		return nil, fmt.Errorf("oracle: lexminmax: %w", err)
	}
	res.Feasible = true
	res.Levels = mm.Levels
	res.Rounds = mm.Rounds
	for ji, vs := range vars {
		for s, v := range vs {
			res.Alloc[ji][in.Jobs[ji].Rel+int64(s)] = mm.Solution.Value(v)
		}
	}
	return res, nil
}
