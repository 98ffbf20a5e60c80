package oracle

import (
	"fmt"
	"math"

	"flowtime/internal/lp"
)

// Tol is the default absolute tolerance for cross-checks. The solver
// freezes levels at 1e-6 resolution, so checks compare coarser than that.
const Tol = 1e-5

// CheckSolution verifies an LP result from the interior: every
// allocation respects its variable bounds and window, demand rows hold
// exactly (within tol), zero-capacity slots carry nothing, and the
// reported levels equal the skyline recomputed from the allocation.
// It is independent of how the solution was produced, so it scales to
// instances far beyond brute-force reach.
func CheckSolution(in Instance, res *LPResult, tol float64) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if !res.Feasible {
		return fmt.Errorf("oracle: CheckSolution on infeasible result")
	}
	if len(res.Alloc) != len(in.Jobs) {
		return fmt.Errorf("oracle: alloc has %d jobs, instance has %d", len(res.Alloc), len(in.Jobs))
	}
	load := make([]float64, len(in.Caps))
	for ji, job := range in.Jobs {
		row := res.Alloc[ji]
		if int64(len(row)) != int64(len(in.Caps)) {
			return fmt.Errorf("oracle: job %d alloc has %d slots, instance has %d", ji, len(row), len(in.Caps))
		}
		var sum float64
		for t, x := range row {
			t64 := int64(t)
			switch {
			case x < -tol:
				return fmt.Errorf("oracle: job %d slot %d negative allocation %g", ji, t, x)
			case x > float64(job.Cap)+tol:
				return fmt.Errorf("oracle: job %d slot %d allocation %g exceeds cap %d", ji, t, x, job.Cap)
			case x > tol && (t64 < job.Rel || t64 >= job.Dl):
				return fmt.Errorf("oracle: job %d slot %d allocation %g outside window [%d, %d)", ji, t, x, job.Rel, job.Dl)
			case x > tol && in.Caps[t] == 0:
				return fmt.Errorf("oracle: job %d slot %d allocation %g on zero-capacity slot", ji, t, x)
			}
			sum += x
			load[t] += x
		}
		if math.Abs(sum-float64(job.Demand)) > tol*float64(len(row)+1) {
			return fmt.Errorf("oracle: job %d allocated %g, demand %d", ji, sum, job.Demand)
		}
	}
	groupSlots := in.GroupSlots()
	if len(res.GroupSlot) != len(groupSlots) {
		return fmt.Errorf("oracle: result has %d groups, instance defines %d", len(res.GroupSlot), len(groupSlots))
	}
	recomputed := make([]float64, len(groupSlots))
	for gi, t := range groupSlots {
		if res.GroupSlot[gi] != t {
			return fmt.Errorf("oracle: group %d maps to slot %d, expected %d", gi, res.GroupSlot[gi], t)
		}
		recomputed[gi] = load[t] / float64(in.Caps[t])
	}
	if len(res.Levels) != len(recomputed) {
		return fmt.Errorf("oracle: result reports %d levels for %d groups", len(res.Levels), len(recomputed))
	}
	for gi, lv := range res.Levels {
		if math.Abs(lv-recomputed[gi]) > tol {
			return fmt.Errorf("oracle: group %d (slot %d) reported level %g, recomputed %g",
				gi, groupSlots[gi], lv, recomputed[gi])
		}
	}
	return nil
}

// CrossCheck runs the full differential battery on a small instance
// against one solver (SolveLP or SolveFlow):
//
//  1. Feasibility triple agreement — the solver, the integral brute
//     force, and the min-cut condition must all return the same verdict.
//  2. Interior check — the solver's allocation satisfies every constraint
//     and its reported levels match the recomputed skyline
//     (CheckSolution).
//  3. First level exact — the solver's max level equals θ* from
//     independent cut enumeration.
//  4. Lexicographic optimality bound — the solver's sorted skyline is no
//     worse than the best integral skyline (the fractional optimum can
//     only do better, never worse).
//
// Returns nil when every check passes.
func CrossCheck(solve Solver, in Instance, tol float64) error {
	lpRes, err := solve(in)
	if err != nil {
		return fmt.Errorf("oracle: solver error: %w", err)
	}
	bf, err := BruteForce(in)
	if err != nil {
		return fmt.Errorf("oracle: brute force error: %w", err)
	}
	if lpRes.Feasible != bf.Feasible {
		return fmt.Errorf("oracle: feasibility disagreement: solver=%v brute-force=%v", lpRes.Feasible, bf.Feasible)
	}
	if len(in.GroupSlots()) > 0 {
		_, cutFeasible, err := MinMaxLevelByCuts(in)
		if err != nil {
			return fmt.Errorf("oracle: cut enumeration error: %w", err)
		}
		if cutFeasible != lpRes.Feasible {
			return fmt.Errorf("oracle: feasibility disagreement: solver=%v min-cut=%v", lpRes.Feasible, cutFeasible)
		}
	}
	if !lpRes.Feasible {
		return nil
	}
	if err := CheckSolution(in, lpRes, tol); err != nil {
		return err
	}
	if len(lpRes.Levels) == 0 {
		return nil
	}
	theta, _, err := MinMaxLevelByCuts(in)
	if err != nil {
		return fmt.Errorf("oracle: cut enumeration error: %w", err)
	}
	maxLv := lp.MaxLevel(lpRes.Levels)
	if math.Abs(maxLv-theta) > tol {
		return fmt.Errorf("oracle: solver max level %g, min-cut optimum %g", maxLv, theta)
	}
	lpSorted := lp.SortedDescending(lpRes.Levels)
	if lp.LexLess(bf.BestSkyline, lpSorted, tol) {
		return fmt.Errorf("oracle: integral skyline %v lexicographically beats the solver's skyline %v",
			bf.BestSkyline, lpSorted)
	}
	return nil
}
