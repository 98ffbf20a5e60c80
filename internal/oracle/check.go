package oracle

import (
	"fmt"
	"math"
)

// Tol is the absolute tolerance of the comparisons with brute force and
// of the metamorphic relations, which meet the planner's answer as
// float64 levels. CheckSolution and CheckRouting need none.
const Tol = 1e-9

// CrossCheck runs the full differential battery on a small instance
// against the flow planner (SolveFlow):
//
//  1. Feasibility triple agreement — the planner, the integral brute
//     force, and the min-cut condition must all return the same verdict.
//  2. Certificate — the planner's skyline passes CheckSolution.
//  3. First level exact — the planner's max level equals θ* from
//     independent cut enumeration.
//  4. Lexicographic optimality bound — the planner's sorted skyline is no
//     worse than the best integral skyline (the fractional optimum can
//     only do better, never worse).
//
// The last two share no network builder with the planner: a certificate
// drawn from a wrongly built network certifies the wrong problem, and
// they are what catch it. Returns nil when every check passes.
func CrossCheck(in Instance, tol float64) error {
	sol, err := SolveFlow(in)
	if err != nil {
		return fmt.Errorf("oracle: solver error: %w", err)
	}
	bf, err := BruteForce(in)
	if err != nil {
		return fmt.Errorf("oracle: brute force error: %w", err)
	}
	if sol.Feasible != bf.Feasible {
		return fmt.Errorf("oracle: feasibility disagreement: solver=%v brute-force=%v", sol.Feasible, bf.Feasible)
	}
	if len(in.GroupSlots()) > 0 {
		_, cutFeasible, err := MinMaxLevelByCuts(in)
		if err != nil {
			return fmt.Errorf("oracle: cut enumeration error: %w", err)
		}
		if cutFeasible != sol.Feasible {
			return fmt.Errorf("oracle: feasibility disagreement: solver=%v min-cut=%v", sol.Feasible, cutFeasible)
		}
	}
	if !sol.Feasible {
		return nil
	}
	if err := CheckSolution(in, sol.Sky); err != nil {
		return err
	}
	if len(sol.Levels) == 0 {
		return nil
	}
	theta, _, err := MinMaxLevelByCuts(in)
	if err != nil {
		return fmt.Errorf("oracle: cut enumeration error: %w", err)
	}
	maxLv := MaxLevel(sol.Levels)
	if math.Abs(maxLv-theta) > tol {
		return fmt.Errorf("oracle: solver max level %g, min-cut optimum %g", maxLv, theta)
	}
	sorted := SortedDescending(sol.Levels)
	if LexLess(bf.BestSkyline, sorted, tol) {
		return fmt.Errorf("oracle: integral skyline %v lexicographically beats the solver's skyline %v",
			bf.BestSkyline, sorted)
	}
	return nil
}
