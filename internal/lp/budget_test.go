package lp

import (
	"errors"
	"testing"
)

// multiPivotModel needs several simplex pivots: maximize the sum of four
// bounded variables under a shared capacity row. The optimum packs
// variables one at a time, so a 1-pivot budget cannot finish.
func multiPivotModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel()
	var obj []Term
	var row []Term
	for i := 0; i < 4; i++ {
		v, err := m.NewVar("", 0, 6)
		if err != nil {
			t.Fatalf("NewVar: %v", err)
		}
		obj = append(obj, Term{Var: v, Coef: -1})
		row = append(row, Term{Var: v, Coef: 1})
	}
	if err := m.SetObjective(obj); err != nil {
		t.Fatalf("SetObjective: %v", err)
	}
	if err := m.AddConstraint(row, LE, 10); err != nil {
		t.Fatalf("AddConstraint: %v", err)
	}
	return m
}

// TestSolveMaxIterTrips drives the built-in pivot budget, which no
// well-posed model reaches, by shrinking it on the solver state.
func TestSolveMaxIterTrips(t *testing.T) {
	m := multiPivotModel(t)
	s := newSimplex(m)
	if want := iterCapPerDim*(s.m+s.n) + iterCapBase; s.maxIter != want {
		t.Fatalf("default pivot budget = %d, want %d", s.maxIter, want)
	}
	s.maxIter = 1
	sol, err := s.solve(m)
	if !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("err = %v, want ErrIterationLimit", err)
	}
	if sol != nil {
		t.Error("tripped solve returned a non-nil solution")
	}
	if s.pivots < 1 {
		t.Errorf("pivots = %d, want >= 1 (budget was consumed)", s.pivots)
	}
}

func TestSolveWithStatsMatchesSolve(t *testing.T) {
	a := multiPivotModel(t)
	want, err := a.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	got, stats, err := a.SolveWithStats()
	if err != nil {
		t.Fatalf("SolveWithStats: %v", err)
	}
	if got.Objective != want.Objective {
		t.Errorf("objective = %g, want %g", got.Objective, want.Objective)
	}
	if want.Objective != -10 {
		t.Errorf("objective = %g, want -10", want.Objective)
	}
	if stats.Pivots < 2 {
		t.Errorf("stats.Pivots = %d, want >= 2 on a multi-pivot model", stats.Pivots)
	}
	if stats.Duration <= 0 {
		t.Errorf("stats.Duration = %v, want > 0", stats.Duration)
	}
}

// minMaxInstance is a two-variable load-balancing instance: both loads can
// be equalized at level 0.5.
func minMaxInstance(t *testing.T) (*Model, []LoadGroup) {
	t.Helper()
	m := NewModel()
	x := m.MustVar("x", 0, 10)
	y := m.MustVar("y", 0, 10)
	m.MustConstraint([]Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, EQ, 10)
	groups := []LoadGroup{
		{Name: "s0", Terms: []Term{{Var: x, Coef: 1}}, Cap: 10},
		{Name: "s1", Terms: []Term{{Var: y, Coef: 1}}, Cap: 10},
	}
	return m, groups
}

func TestLexMinMaxAggregatesStats(t *testing.T) {
	m, groups := minMaxInstance(t)
	res, err := LexMinMax(m, groups, 0)
	if err != nil {
		t.Fatalf("LexMinMax: %v", err)
	}
	if res.Stats.Pivots < 1 {
		t.Errorf("Stats.Pivots = %d, want >= 1", res.Stats.Pivots)
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("Stats.Duration = %v, want > 0", res.Stats.Duration)
	}
	for g, lv := range res.Levels {
		if lv > 0.5+1e-6 {
			t.Errorf("group %d level = %g, want <= 0.5 (balanced optimum)", g, lv)
		}
	}
}
