package oracle

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"flowtime/internal/flow"
)

// Solution is SolveFlow's answer: the production planner's skyline with
// the certificate it carries, and each load group's normalized load for
// the comparisons with brute force and the metamorphic relations.
type Solution struct {
	// Feasible is false when the planner reported flow.ErrInfeasible.
	Feasible bool
	// Sky is the planner's skyline, nil when infeasible.
	Sky *flow.Skyline
	// Levels[g] is the load over capacity of slot in.GroupSlots()[g].
	Levels []float64
}

// SolveFlow runs the production planner, flow.LexMinMax with every level
// solved, on the instance.
func SolveFlow(in Instance) (*Solution, error) {
	return SolveFlowLevels(in, 0)
}

// SolveFlowLevels is SolveFlow with the level cap core.Config.MaxLexRounds
// hands the planner (0 = exact).
func SolveFlowLevels(in Instance, maxLevels int) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	res := &Solution{}
	sky, err := flow.LexMinMax(in.Caps, flowJobs(in.Jobs), maxLevels)
	if errors.Is(err, flow.ErrInfeasible) {
		return res, nil
	}
	if err != nil {
		return nil, fmt.Errorf("oracle: flow: %w", err)
	}
	res.Feasible, res.Sky = true, sky
	for _, t := range in.GroupSlots() {
		res.Levels = append(res.Levels, sky.Load[t]/float64(in.Caps[t]))
	}
	return res, nil
}

// flowJobs restates the instance's jobs in the flow planner's type.
func flowJobs(jobs []Job) []flow.Job {
	out := make([]flow.Job, len(jobs))
	for ji, job := range jobs {
		out[ji] = flow.Job(job)
	}
	return out
}

// CheckFlow is the check that licenses planning by flow, at any size:
// the planner's skyline passes CheckSolution uncapped and capped at one
// to three levels, and stage A's routing of the jobs in their own order
// passes CheckRouting. An infeasible verdict must be certified too: with
// every usable slot's capacity lifted to the whole demand, stage A must
// still leave some of it short.
func CheckFlow(in Instance) error {
	for k := 0; k <= 3; k++ {
		sol, err := SolveFlowLevels(in, k)
		if err != nil {
			return err
		}
		if !sol.Feasible {
			if k > 0 {
				return fmt.Errorf("oracle: flow capped at %d levels lost feasibility", k)
			}
			return checkInfeasible(in)
		}
		if err := CheckSolution(in, k, sol.Sky); err != nil {
			return fmt.Errorf("flow capped at %d levels: %w", k, err)
		}
	}
	_, err := MaxFlow(in)
	return err
}

// checkInfeasible certifies that no level routes the instance's demand:
// slot capacities only normalize stage B, so it is infeasible exactly
// when stage A cannot route it through slots as large as the demand.
func checkInfeasible(in Instance) error {
	lifted := Instance{Caps: make([]int64, len(in.Caps)), Jobs: in.Jobs}
	var total int64
	for _, job := range in.Jobs {
		total += job.Demand
	}
	for t, c := range in.Caps {
		if c > 0 {
			lifted.Caps[t] = total
		}
	}
	routed, err := MaxFlow(lifted)
	if err != nil {
		return err
	}
	if routed == total {
		return fmt.Errorf("oracle: flow reports infeasible, yet all %d of the demand routes", total)
	}
	return nil
}

// MaxFlow is stage A's total over the jobs in their own order: the most
// demand the instance's windows, parallelism caps and hard slot
// capacities admit, certified by CheckRouting.
func MaxFlow(in Instance) (int64, error) {
	order := make([]int, len(in.Jobs))
	for i := range order {
		order[i] = i
	}
	r, err := flow.Shortfall(in.Caps, flowJobs(in.Jobs), order)
	if err != nil {
		return 0, fmt.Errorf("oracle: stage A: %w", err)
	}
	if err := CheckRouting(in, order, r); err != nil {
		return 0, err
	}
	var routed int64
	for j, job := range in.Jobs {
		routed += job.Demand - r.Short[j]
	}
	return routed, nil
}

// SortedDescending returns a copy of levels sorted high to low, the
// vector the lexicographic objective compares.
func SortedDescending(levels []float64) []float64 {
	out := append([]float64(nil), levels...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// LexLess compares two descending-sorted vectors lexicographically with
// tolerance eps: it reports whether a is strictly better than b.
func LexLess(a, b []float64, eps float64) bool {
	for i := 0; i < min(len(a), len(b)); i++ {
		switch {
		case a[i] < b[i]-eps:
			return true
		case a[i] > b[i]+eps:
			return false
		}
	}
	return false
}

// MaxLevel returns the largest element of levels, or 0 if empty.
func MaxLevel(levels []float64) float64 {
	maxL := 0.0
	for _, l := range levels {
		maxL = math.Max(maxL, l)
	}
	return maxL
}
