package lp

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// buildScheduling builds the paper's scheduling LP skeleton for a single
// resource: job i must receive demand[i] units within slots
// [win[i][0], win[i][1]] (inclusive), at most maxPerSlot[i] per slot. It
// returns the variable grid x[i][t] (Var(-1) outside the window) and the
// per-slot load groups with capacity cap.
func buildScheduling(t *testing.T, demand []float64, win [][2]int, maxPerSlot []float64, slots int, capacity float64) (*Model, [][]Var, []LoadGroup) {
	t.Helper()
	m := NewModel()
	x := make([][]Var, len(demand))
	for i := range demand {
		x[i] = make([]Var, slots)
		for s := range x[i] {
			x[i][s] = Var(-1)
		}
		var terms []Term
		for s := win[i][0]; s <= win[i][1]; s++ {
			v := mustVar(t, m, "", 0, maxPerSlot[i])
			x[i][s] = v
			terms = append(terms, Term{v, 1})
		}
		mustConstraint(t, m, terms, EQ, demand[i])
	}
	groups := make([]LoadGroup, slots)
	for s := 0; s < slots; s++ {
		var terms []Term
		for i := range demand {
			if x[i][s] >= 0 {
				terms = append(terms, Term{x[i][s], 1})
			}
		}
		if len(terms) == 0 {
			// Keep the group well-formed with a dummy zero-load variable.
			v := mustVar(t, m, "", 0, 0)
			terms = []Term{{v, 1}}
		}
		groups[s] = LoadGroup{Terms: terms, Cap: capacity}
	}
	return m, x, groups
}

func TestLexMinMaxFlattensSingleJob(t *testing.T) {
	// One job, demand 6 over 3 slots, cap 10: a flat 2/2/2 allocation is
	// the unique lexmin (levels 0.2 everywhere).
	m, _, groups := buildScheduling(t,
		[]float64{6}, [][2]int{{0, 2}}, []float64{10}, 3, 10)
	res, err := LexMinMax(m, groups, 0)
	if err != nil {
		t.Fatalf("LexMinMax: %v", err)
	}
	for s, lvl := range res.Levels {
		if !approx(lvl, 0.2, 1e-6) {
			t.Errorf("slot %d level = %g, want 0.2", s, lvl)
		}
	}
}

func TestLexMinMaxRespectsWindows(t *testing.T) {
	// Job 0 is pinned to slot 0 (window [0,0], demand 8); job 1 can spread
	// across [0,2] with demand 6. Lexmin keeps job 1 out of the loaded
	// slot 0: slot 0 = 8, slots 1-2 = 3 each.
	m, x, groups := buildScheduling(t,
		[]float64{8, 6}, [][2]int{{0, 0}, {0, 2}}, []float64{10, 10}, 3, 10)
	res, err := LexMinMax(m, groups, 0)
	if err != nil {
		t.Fatalf("LexMinMax: %v", err)
	}
	want := []float64{0.8, 0.3, 0.3}
	for s, lvl := range res.Levels {
		if !approx(lvl, want[s], 1e-6) {
			t.Errorf("slot %d level = %g, want %g", s, lvl, want[s])
		}
	}
	if v := res.Solution.Value(x[1][0]); !approx(v, 0, 1e-6) {
		t.Errorf("job 1 uses %g in the saturated slot, want 0", v)
	}
}

func TestLexMinMaxSecondLevelMatters(t *testing.T) {
	// Two saturation levels: job 0 pinned in slot 0 with demand 10 (level
	// 1.0); job 1 (demand 4, window [1,2], cap 10) must still be flattened
	// to 2/2 at the second level, which a plain min-max would not enforce.
	m, _, groups := buildScheduling(t,
		[]float64{10, 4}, [][2]int{{0, 0}, {1, 2}}, []float64{10, 10}, 3, 10)
	res, err := LexMinMax(m, groups, 0)
	if err != nil {
		t.Fatalf("LexMinMax: %v", err)
	}
	want := []float64{1.0, 0.2, 0.2}
	for s, lvl := range res.Levels {
		if !approx(lvl, want[s], 1e-6) {
			t.Errorf("slot %d level = %g, want %g", s, lvl, want[s])
		}
	}
	if res.Rounds < 2 {
		t.Errorf("Rounds = %d, want >= 2 (two saturation levels)", res.Rounds)
	}
}

func TestLexMinMaxMotivatingExample(t *testing.T) {
	// The paper's Fig. 1: workflow W1 = two chained jobs, each needing the
	// full resource cap for 50 slots within a 200-slot horizon (deadline
	// 200). After FlowTime's decomposition job 1 gets window [0,100) and
	// job 2 [100,200). Each job's demand is cap*50; lexmin flattens each to
	// cap/2 across its window, leaving half the cluster free for ad-hoc
	// jobs at all times — matching Fig. 1(b).
	const (
		slots = 20 // scaled: 1 slot = 10 time units
		c     = 10.0
	)
	demand := []float64{c * 5, c * 5} // 50 time units at full cap, scaled
	win := [][2]int{{0, 9}, {10, 19}}
	maxPerSlot := []float64{c, c}
	m, _, groups := buildScheduling(t, demand, win, maxPerSlot, slots, c)
	res, err := LexMinMax(m, groups, 0)
	if err != nil {
		t.Fatalf("LexMinMax: %v", err)
	}
	for s, lvl := range res.Levels {
		if !approx(lvl, 0.5, 1e-6) {
			t.Errorf("slot %d level = %g, want 0.5 (half the cluster left for ad-hoc)", s, lvl)
		}
	}
}

func TestLexMinMaxInfeasible(t *testing.T) {
	m, _, groups := buildScheduling(t,
		[]float64{30}, [][2]int{{0, 1}}, []float64{10}, 2, 10)
	// Demand 30 cannot fit in 2 slots at <= 10/slot regardless of theta.
	if _, err := LexMinMax(m, groups, 0); err == nil {
		t.Fatal("LexMinMax on infeasible instance: want error")
	}
}

func TestLexMinMaxValidation(t *testing.T) {
	m := NewModel()
	v := mustVar(t, m, "v", 0, 1)
	if _, err := LexMinMax(m, []LoadGroup{{Terms: []Term{{v, 1}}, Cap: 0}}, 0); err == nil {
		t.Error("zero capacity: want error")
	}
	if _, err := LexMinMax(m, []LoadGroup{{Cap: 1}}, 0); err == nil {
		t.Error("empty terms: want error")
	}
}

// TestLexMinMaxDominatesRandomFeasible property: the solver's sorted level
// vector is lexicographically <= that of any feasible allocation we can
// construct, on random small instances.
func TestLexMinMaxDominatesRandomFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		slots := 2 + rng.Intn(3)
		jobs := 1 + rng.Intn(3)
		capacity := float64(4 + rng.Intn(4))
		demand := make([]float64, jobs)
		win := make([][2]int, jobs)
		maxPerSlot := make([]float64, jobs)
		for i := range demand {
			a := rng.Intn(slots)
			b := a + rng.Intn(slots-a)
			win[i] = [2]int{a, b}
			maxPerSlot[i] = float64(1 + rng.Intn(int(capacity)))
			// Keep demand individually feasible within the window and cap.
			maxD := maxPerSlot[i] * float64(b-a+1)
			demand[i] = float64(1 + rng.Intn(int(maxD)))
		}

		m, x, groups := buildScheduling(t, demand, win, maxPerSlot, slots, capacity)
		res, err := LexMinMax(m, groups, 0)
		if err != nil {
			continue // jointly infeasible random instance
		}
		got := SortedDescending(res.Levels)

		// Construct 30 random feasible integral allocations greedily and
		// compare.
		for alt := 0; alt < 30; alt++ {
			loads := make([]float64, slots)
			ok := true
			for i := 0; i < jobs && ok; i++ {
				left := demand[i]
				order := rng.Perm(win[i][1] - win[i][0] + 1)
				for _, ds := range order {
					s := win[i][0] + ds
					amt := math.Min(left, maxPerSlot[i])
					loads[s] += amt
					left -= amt
					if left <= 0 {
						break
					}
				}
				if left > 1e-9 {
					ok = false
				}
			}
			if !ok {
				continue
			}
			// Skip alternatives that exceed capacity (infeasible ones do
			// not bound the solver).
			feasible := true
			for _, l := range loads {
				if l > capacity+1e-9 {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			altLevels := make([]float64, slots)
			for s, l := range loads {
				altLevels[s] = l / capacity
			}
			altSorted := SortedDescending(altLevels)
			if LexLess(altSorted, got, 1e-6) {
				t.Fatalf("trial %d: random feasible allocation %v beats solver %v (x grid %v)",
					trial, altSorted, got, x)
			}
		}
	}
}

func TestLemma1PowerScalarization(t *testing.T) {
	// Lemma 1: g(u) <= g(v) iff sorted(u) lexicographically <= sorted(v),
	// for integer vectors. Verify on random small vectors.
	f := func(a, b [4]uint8) bool {
		u := make([]int, 4)
		v := make([]int, 4)
		for i := 0; i < 4; i++ {
			u[i] = int(a[i] % 8)
			v[i] = int(b[i] % 8)
		}
		us := append([]int(nil), u...)
		vs := append([]int(nil), v...)
		sort.Sort(sort.Reverse(sort.IntSlice(us)))
		sort.Sort(sort.Reverse(sort.IntSlice(vs)))
		lex := 0 // -1: u < v, 0: equal, 1: u > v
		for i := range us {
			if us[i] != vs[i] {
				if us[i] < vs[i] {
					lex = -1
				} else {
					lex = 1
				}
				break
			}
		}
		gu, gv := PowerScalarization(u), PowerScalarization(v)
		switch lex {
		case -1:
			return gu < gv
		case 1:
			return gu > gv
		default:
			return math.Abs(gu-gv) < 1e-9
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLambdaRepresentationMatchesDirectConvexMin(t *testing.T) {
	// min (y-3)^2-ish convex cost via lambda-representation: f(j) = (j-3)^2
	// over D = {0..6} with y >= 5 forces y = 5, cost 4.
	m := NewModel()
	y := mustVar(t, m, "y", 0, 6)
	mustConstraint(t, m, []Term{{y, 1}}, GE, 5)
	if err := AddConvexCost(m, y, 0, 6, func(j int) float64 {
		return float64((j - 3) * (j - 3))
	}); err != nil {
		t.Fatalf("AddConvexCost: %v", err)
	}
	sol := mustSolve(t, m)
	if !approx(sol.Value(y), 5, 1e-6) {
		t.Errorf("y = %g, want 5", sol.Value(y))
	}
	if !approx(sol.Objective, 4, 1e-6) {
		t.Errorf("objective = %g, want 4", sol.Objective)
	}
}

func TestLambdaScalarizationReproducesMinMax(t *testing.T) {
	// Reproduce the paper's exact objective min sum k^(z_t/C) on a tiny
	// instance via the lambda-representation, and check it lands on the
	// same max level as LexMinMax: 2 jobs, demands {2,2}, windows spanning
	// both of 2 slots, cap 4 -> flat loads (2, 2), level 0.5.
	const slots, capacity = 2, 4.0
	build := func() (*Model, [][]Var, []LoadGroup) {
		return buildScheduling(t,
			[]float64{2, 2}, [][2]int{{0, 1}, {0, 1}}, []float64{4, 4}, slots, capacity)
	}

	m1, _, groups := build()
	res, err := LexMinMax(m1, groups, 0)
	if err != nil {
		t.Fatalf("LexMinMax: %v", err)
	}

	m2, x2, _ := build()
	k := float64(slots)
	for s := 0; s < slots; s++ {
		z := mustVar(t, m2, "z", 0, capacity)
		terms := []Term{{z, -1}}
		for i := range x2 {
			if x2[i][s] >= 0 {
				terms = append(terms, Term{x2[i][s], 1})
			}
		}
		mustConstraint(t, m2, terms, EQ, 0)
		if err := AddConvexCost(m2, z, 0, int(capacity), func(j int) float64 {
			return math.Pow(k, float64(j)/capacity)
		}); err != nil {
			t.Fatalf("AddConvexCost: %v", err)
		}
	}
	sol := mustSolve(t, m2)

	// Loads under the lambda formulation.
	for s := 0; s < slots; s++ {
		load := 0.0
		for i := range x2 {
			load += sol.Value(x2[i][s])
		}
		if !approx(load/capacity, res.Levels[s], 1e-5) {
			t.Errorf("slot %d: lambda load %g, lexminmax %g", s, load/capacity, res.Levels[s])
		}
	}
}

// TestConvergenceErrorReportsSplit pins the convergence-guard error format:
// it must name the active/frozen group split so a stuck instance is
// debuggable from the error alone.
func TestConvergenceErrorReportsSplit(t *testing.T) {
	r := &lexRun{groups: make([]LoadGroup, 5)}
	err := r.convergenceError(7, []int{1, 4}, map[int]float64{0: 1.5, 2: 0.5, 3: 0.25})
	msg := err.Error()
	for _, want := range []string{
		"failed to converge after 7 rounds",
		"2 of 5 groups active [1 4]",
		"3 frozen [0 2 3]",
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}
