package oracle

import (
	"errors"
	"fmt"
	"math"

	"flowtime/internal/flow"
	"flowtime/internal/lp"
)

// Solver is anything that answers an Instance in LPResult's shape: the
// reference simplex (SolveLP) or the production flow planner (SolveFlow).
// The cross-checks and metamorphic relations take one, so both solvers
// face the same oracles.
type Solver func(Instance) (*LPResult, error)

// SolveFlow runs the production planner, flow.LexMinMax with every level
// solved, on the instance and reports it in SolveLP's shape.
func SolveFlow(in Instance) (*LPResult, error) {
	return SolveFlowLevels(in, 0)
}

// SolveFlowLevels is SolveFlow with the level cap core.Config.MaxLexRounds
// hands the planner (0 = exact). Rounds is the number of levels solved and
// Exact marks the groups frozen at one of them.
func SolveFlowLevels(in Instance, maxLevels int) (*LPResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	jobs := flowJobs(in.Jobs)
	res := &LPResult{GroupSlot: in.GroupSlots(), Alloc: make([][]float64, len(in.Jobs))}
	for ji := range res.Alloc {
		res.Alloc[ji] = make([]float64, len(in.Caps))
	}
	sky, err := flow.LexMinMax(in.Caps, jobs, maxLevels)
	if errors.Is(err, flow.ErrInfeasible) {
		return res, nil
	}
	if err != nil {
		return nil, fmt.Errorf("oracle: flow: %w", err)
	}
	res.Feasible = true
	res.Rounds = sky.Levels
	for _, t := range res.GroupSlot {
		res.Levels = append(res.Levels, sky.Level[t])
		res.Exact = append(res.Exact, sky.Exact[t])
	}
	for ji, row := range sky.Alloc {
		copy(res.Alloc[ji][in.Jobs[ji].Rel:], row)
	}
	return res, nil
}

// flowJobs restates the instance's jobs in the flow planner's type.
func flowJobs(jobs []Job) []flow.Job {
	out := make([]flow.Job, len(jobs))
	for ji, job := range jobs {
		out[ji] = flow.Job{Demand: job.Demand, Rel: job.Rel, Dl: job.Dl, Cap: job.Cap}
	}
	return out
}

// CheckFlowLP is the differential check that licenses planning by flow:
// on one instance the flow planner and the exact simplex must agree on
// feasibility and on every group's level (the lexicographic optimum is
// unique per slot, not just as a sorted vector), the flow's allocation
// must pass the interior checker, and a level-capped flow must keep the
// capped levels exact — the groups it froze sit at their optimal level,
// every other group at or under the last one, and its maximum equals the
// equally capped simplex's.
func CheckFlowLP(in Instance, tol float64) error {
	ref, err := SolveLP(in, 0)
	if err != nil {
		return fmt.Errorf("oracle: solver error: %w", err)
	}
	got, err := SolveFlow(in)
	if err != nil {
		return err
	}
	if got.Feasible != ref.Feasible {
		return fmt.Errorf("oracle: feasibility disagreement: flow=%v LP=%v", got.Feasible, ref.Feasible)
	}
	if !ref.Feasible {
		return nil
	}
	if err := CheckSolution(in, got, tol); err != nil {
		return fmt.Errorf("flow allocation: %w", err)
	}
	for gi, lv := range got.Levels {
		if math.Abs(lv-ref.Levels[gi]) > tol {
			return fmt.Errorf("oracle: group %d (slot %d): flow level %.9g, LP level %.9g", gi, got.GroupSlot[gi], lv, ref.Levels[gi])
		}
		if !got.Exact[gi] {
			return fmt.Errorf("oracle: group %d (slot %d) not exact in an uncapped flow", gi, got.GroupSlot[gi])
		}
	}
	for k := 1; k <= 3; k++ {
		capped, err := SolveFlowLevels(in, k)
		if err != nil {
			return err
		}
		if !capped.Feasible {
			return fmt.Errorf("oracle: flow capped at %d levels lost feasibility", k)
		}
		if err := CheckSolution(in, capped, tol); err != nil {
			return fmt.Errorf("flow capped at %d levels: %w", k, err)
		}
		floor := math.Inf(1) // the lowest level solved
		for gi, lv := range capped.Levels {
			if capped.Exact[gi] {
				floor = math.Min(floor, lv)
				if math.Abs(lv-ref.Levels[gi]) > tol {
					return fmt.Errorf("oracle: flow capped at %d levels froze group %d at %.9g, optimum %.9g", k, gi, lv, ref.Levels[gi])
				}
			}
		}
		for gi, lv := range capped.Levels {
			if !capped.Exact[gi] && lv > floor+tol {
				return fmt.Errorf("oracle: flow capped at %d levels left group %d at %.9g, above its last level %.9g", k, gi, lv, floor)
			}
		}
		lpCapped, err := SolveLP(in, k)
		if err != nil {
			return fmt.Errorf("oracle: solver error: %w", err)
		}
		if a, b := lp.MaxLevel(capped.Levels), lp.MaxLevel(lpCapped.Levels); math.Abs(a-b) > tol {
			return fmt.Errorf("oracle: capped at %d: flow max level %.9g, LP max level %.9g", k, a, b)
		}
	}
	return nil
}
