package lp

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// LoadGroup is one component of a lexicographic min-max objective: a linear
// load expression normalized by a positive capacity. In FlowTime's
// formulation (Eq. 1 of the paper) there is one group per (time slot,
// resource kind) pair, the load is the total allocation z[t][r], and the
// capacity is C[t][r].
type LoadGroup struct {
	// Name is used in diagnostics only.
	Name string
	// Terms is the linear load expression.
	Terms []Term
	// Cap is the normalizing capacity; must be > 0.
	Cap float64
}

// MinMaxResult is the outcome of LexMinMax.
type MinMaxResult struct {
	// Solution is the final variable assignment.
	Solution *Solution
	// Levels[g] is the normalized load of group g in the final solution.
	Levels []float64
	// Rounds is the number of min-θ LPs solved.
	Rounds int
	// Stats aggregates solver work across every LP solved by the call
	// (min-θ rounds, saturation probes, and the final tie-break solve).
	Stats SolveStats
}

// LexMinMax lexicographically minimizes the descending-sorted vector of
// normalized group loads subject to the constraints already present in
// base. This is the numerically stable realization of the paper's Lemma 1
// scalarization min Σ k^(z/C): rather than exponentiating (which overflows
// for k = |T||R|), it repeatedly solves
//
//	min θ  s.t.  base constraints, load_g ≤ θ·cap_g for active g,
//	             load_g ≤ level_g·cap_g for frozen g,
//
// then freezes the groups that are saturated in every optimal solution
// (detected through positive duals on their capacity rows, with an exact
// minimization probe as a fallback for degenerate bases) and recurses on
// the rest. The two forms have the same optimum: Lemma 1 states g(u) ≤ g(v)
// ⟺ u ⪯ v lexicographically, and the iterative scheme computes exactly the
// ⪯-minimal achievable vector.
//
// Every LP is a fresh clone of base with that round's cap and freeze rows
// appended, solved from scratch. base is not mutated. Every group must
// have Cap > 0 and at least one term.
//
// maxRounds caps the number of min-θ LPs; zero means no cap (the exact
// lexicographic optimum). When the cap is reached, all still-active
// groups are frozen at the last level: the result is feasible, has the
// exact optimal maximum level, and is lexicographically optimal down to
// the level reached — the contract of the flow planner's level cap
// (core.Config.MaxLexRounds), which oracle.CheckFlowLP holds it to.
func LexMinMax(base *Model, groups []LoadGroup, maxRounds int) (*MinMaxResult, error) {
	for gi, g := range groups {
		if g.Cap <= 0 {
			return nil, fmt.Errorf("lp: lexminmax: group %d (%s) has non-positive capacity %g", gi, g.Name, g.Cap)
		}
		if len(g.Terms) == 0 {
			return nil, fmt.Errorf("lp: lexminmax: group %d (%s) has no terms", gi, g.Name)
		}
	}
	r := &lexRun{base: base, groups: groups, maxRounds: maxRounds, start: time.Now()}
	return r.run()
}

// levelTol is the normalized-level tolerance used for binding detection
// and saturation probes.
const levelTol = 1e-6

// lexRun is the state of one LexMinMax call.
type lexRun struct {
	base      *Model
	groups    []LoadGroup
	maxRounds int
	start     time.Time
	agg       SolveStats
}

// solve runs one inner LP, aggregating its stats.
func (r *lexRun) solve(m *Model) (*Solution, error) {
	sol, st, err := m.SolveWithStats()
	r.agg.Add(st)
	return sol, err
}

// convergenceError reports the active/frozen split so a stuck instance can
// be debugged from the error alone.
func (r *lexRun) convergenceError(rounds int, active []int, frozen map[int]float64) error {
	frozenIdx := sortedGroupKeys(frozen)
	return fmt.Errorf("lp: lexminmax: failed to converge after %d rounds: %d of %d groups active %v, %d frozen %v",
		rounds, len(active), len(r.groups), active, len(frozenIdx), frozenIdx)
}

// result assembles the MinMaxResult from the final (or fallback) solution.
func (r *lexRun) result(sol *Solution, rounds int) *MinMaxResult {
	levels := make([]float64, len(r.groups))
	for gi := range r.groups {
		levels[gi] = evalTerms(r.groups[gi].Terms, sol) / r.groups[gi].Cap
	}
	r.agg.Duration = time.Since(r.start)
	return &MinMaxResult{Solution: sol, Levels: levels, Rounds: rounds, Stats: r.agg}
}

// run is the round loop and the final tie-break solve.
func (r *lexRun) run() (*MinMaxResult, error) {
	base, groups := r.base, r.groups

	active := make([]int, 0, len(groups))
	for gi := range groups {
		active = append(active, gi)
	}
	frozen := make(map[int]float64, len(groups))

	var (
		lastSol *Solution
		rounds  int
	)
	for len(active) > 0 {
		rounds++
		if rounds > len(groups)+1 {
			return nil, r.convergenceError(rounds, active, frozen)
		}
		lastRound := r.maxRounds > 0 && rounds >= r.maxRounds

		m := base.Clone()
		theta, err := m.NewVar("theta", 0, Inf)
		if err != nil {
			return nil, err
		}
		if err := m.SetObjective([]Term{{Var: theta, Coef: 1}}); err != nil {
			return nil, err
		}
		// Row index of each group's cap constraint, for dual lookup.
		capRow := make(map[int]int, len(groups))
		for _, gi := range active {
			g := groups[gi]
			terms := append(append(make([]Term, 0, len(g.Terms)+1), g.Terms...),
				Term{Var: theta, Coef: -g.Cap})
			capRow[gi] = m.NumConstraints()
			if err := m.AddConstraint(terms, LE, 0); err != nil {
				return nil, err
			}
		}
		for _, gi := range sortedGroupKeys(frozen) {
			if err := m.AddConstraint(groups[gi].Terms, LE, frozen[gi]*groups[gi].Cap); err != nil {
				return nil, err
			}
		}

		sol, err := r.solve(m)
		if err != nil {
			return nil, fmt.Errorf("lp: lexminmax round %d: %w", rounds, err)
		}
		lastSol = sol
		level := sol.Value(theta)

		if level <= levelTol {
			// Nothing left to flatten: remaining groups are all at ~zero.
			for _, gi := range active {
				frozen[gi] = 0
			}
			break
		}
		if lastRound {
			for _, gi := range active {
				frozen[gi] = level
			}
			break
		}

		// Saturated candidates: groups whose load reaches θ·cap.
		var binding []int
		for _, gi := range active {
			load := evalTerms(groups[gi].Terms, sol)
			if load >= (level-levelTol)*groups[gi].Cap {
				binding = append(binding, gi)
			}
		}
		if len(binding) == 0 {
			return nil, fmt.Errorf("lp: lexminmax: no binding group at level %g (internal error)", level)
		}

		// Freeze groups that must be saturated in every optimum. A nonzero
		// dual on the cap row certifies that (LE-row duals are <= 0 for a
		// minimization under this solver's sign convention); for fully
		// degenerate bases fall back to an exact probe.
		newFrozen := 0
		for _, gi := range binding {
			if sol.Dual(capRow[gi]) < -1e-7 {
				frozen[gi] = level
				newFrozen++
			}
		}
		if newFrozen == 0 {
			// One shared probe model per round: all active groups pinned
			// into the level band (pinning the candidate itself is harmless
			// — an upper bound at level·cap+tol cannot raise a minimum that
			// is already below it), frozen groups pinned at their levels;
			// only the objective changes between candidates.
			pm := base.Clone()
			for _, gi := range active {
				if err := pm.AddConstraint(groups[gi].Terms, LE, level*groups[gi].Cap+levelTol); err != nil {
					return nil, err
				}
			}
			for _, gi := range sortedGroupKeys(frozen) {
				if err := pm.AddConstraint(groups[gi].Terms, LE, frozen[gi]*groups[gi].Cap+levelTol); err != nil {
					return nil, err
				}
			}
			for _, gi := range binding {
				if err := pm.SetObjective(groups[gi].Terms); err != nil {
					return nil, err
				}
				psol, err := r.solve(pm)
				if err != nil {
					return nil, fmt.Errorf("lp: lexminmax probe: %w", err)
				}
				minLoad := evalTerms(groups[gi].Terms, psol)
				if minLoad >= (level-10*levelTol)*groups[gi].Cap {
					frozen[gi] = level
					newFrozen++
					break
				}
			}
		}
		if newFrozen == 0 {
			// Mathematically at least one binding group is saturated in
			// every optimum; if numerics hid it, freeze all binding groups.
			// This may slightly over-constrain deeper levels but guarantees
			// termination with a feasible, near-lexmin plan.
			for _, gi := range binding {
				frozen[gi] = level
				newFrozen++
			}
		}

		next := active[:0]
		for _, gi := range active {
			if _, ok := frozen[gi]; !ok {
				next = append(next, gi)
			}
		}
		active = next
	}

	// One final solve pinning every group to its freeze level, minimizing
	// the total load as a tie-break so the plan does not carry slack
	// allocations that frozen caps would permit.
	final := base.Clone()
	for _, gi := range sortedGroupKeys(frozen) {
		if err := final.AddConstraint(groups[gi].Terms, LE, frozen[gi]*groups[gi].Cap+1e-9); err != nil {
			return nil, err
		}
	}
	var objTerms []Term
	for gi := range groups {
		objTerms = append(objTerms, groups[gi].Terms...)
	}
	if err := final.SetObjective(objTerms); err != nil {
		return nil, err
	}
	sol, err := r.solve(final)
	if err != nil {
		if lastSol == nil {
			return nil, fmt.Errorf("lp: lexminmax final solve: %w", err)
		}
		sol = lastSol
	}
	return r.result(sol, rounds), nil
}

// sortedGroupKeys returns the frozen map's group indices in ascending
// order. Constraint rows must be added in a deterministic order: row
// order steers simplex pivot selection and summation order, and the
// plan-diff equivalence oracle compares θ between two instances bitwise.
func sortedGroupKeys(frozen map[int]float64) []int {
	keys := make([]int, 0, len(frozen))
	for gi := range frozen {
		keys = append(keys, gi)
	}
	sort.Ints(keys)
	return keys
}

func evalTerms(terms []Term, sol *Solution) float64 {
	v := 0.0
	for _, t := range terms {
		v += t.Coef * sol.Value(t.Var)
	}
	return v
}

// SortedDescending returns a copy of levels sorted high-to-low, the vector
// the lexicographic objective compares.
func SortedDescending(levels []float64) []float64 {
	out := append([]float64(nil), levels...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// LexLess compares two descending-sorted vectors lexicographically with
// tolerance eps: it reports whether a ⪯ b strictly (a is better).
func LexLess(a, b []float64, eps float64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
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
