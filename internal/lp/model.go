// Package lp implements a linear-programming solver sufficient to solve
// FlowTime's scheduling formulation exactly, replacing the IBM CPLEX
// dependency of the paper (ICDCS 2018, §V).
//
// It is a reference solver: the scheduler plans by max-flow
// (internal/flow), and this package exists so that planner can be checked
// against an independent, general method (internal/oracle, cmd/ftperf),
// and as the standalone cmd/ftlp. It is therefore one deliberately plain
// algorithm — a bounded-variable primal simplex in revised form over the
// explicit dense basis inverse, two phases from an all-artificial start
// every time, Dantzig pricing with Bland's rule as the anti-cycling
// fallback, and a refactorization every 256 pivots — with no warm start,
// no presolve and no sparse factorization. Variables carry individual
// [lower, upper] bounds so per-variable caps — such as a job's
// parallelism limit — cost nothing at solve time. The package also
// provides:
//
//   - dual values and reduced costs, used by tests to certify optimality
//     through complementary slackness rather than trusting the solver;
//   - a lexicographic min-max driver (LexMinMax) realizing the paper's
//     Lemma 1 objective in the numerically stable iterative form;
//   - the λ-representation construction from the paper's Eq. (8)–(9)
//     (see lambda.go) for separable convex objectives.
package lp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Inf is the bound value representing "no upper bound".
var Inf = math.Inf(1)

// Sentinel errors returned by Solve.
var (
	// ErrInfeasible is returned when no point satisfies all constraints.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded is returned when the objective can decrease forever.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrIterationLimit is returned when the simplex exceeds its pivot
	// budget, which indicates a modeling bug or numerical trouble.
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
	// ErrNumerical is returned when the final basis fails the numeric
	// sanity check: NaN/Inf basic values, or basic values grossly outside
	// their bounds. Such a "solution" must not be trusted.
	ErrNumerical = errors.New("lp: numerical instability")
)

// SolveStats reports what a solve cost, whether or not it succeeded.
type SolveStats struct {
	// Pivots is the number of basis changes and bound flips performed
	// over both phases.
	Pivots int
	// BlandPivots is the subset of Pivots performed under Bland's
	// anti-cycling rule after a degenerate stall.
	BlandPivots int
	// Refactors counts full basis refactorizations.
	Refactors int
	// Duration is the wall-clock time the solve took.
	Duration time.Duration
}

// Add folds another solve's counters into s (Duration included).
func (s *SolveStats) Add(o SolveStats) {
	s.Pivots += o.Pivots
	s.BlandPivots += o.BlandPivots
	s.Refactors += o.Refactors
	s.Duration += o.Duration
}

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses. Enums start at one so the zero value is invalid.
const (
	// LE is "less than or equal".
	LE Sense = iota + 1
	// GE is "greater than or equal".
	GE
	// EQ is "equal".
	EQ
)

// String returns the mathematical symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("sense(%d)", int(s))
	}
}

// Var identifies a decision variable within one Model.
type Var int

// Term is a coefficient applied to a variable.
type Term struct {
	Var  Var
	Coef float64
}

// Model is a linear program under construction: minimize c·x subject to
// linear constraints and per-variable bounds. The zero value is not usable;
// construct with NewModel.
type Model struct {
	lo, hi []float64 // per-variable bounds
	obj    []float64 // objective coefficients (minimization)
	names  []string

	rows []row
}

type row struct {
	terms []Term
	sense Sense
	rhs   float64
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{}
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.lo) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.rows) }

// NewVar adds a variable with bounds [lo, hi] and zero objective
// coefficient. lo must be finite and hi >= lo (hi may be Inf). The name is
// used only in diagnostics and may be empty.
func (m *Model) NewVar(name string, lo, hi float64) (Var, error) {
	if err := checkBounds(name, lo, hi); err != nil {
		return 0, err
	}
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.obj = append(m.obj, 0)
	m.names = append(m.names, name)
	return Var(len(m.lo) - 1), nil
}

// SetBounds replaces the bounds of variable v, under NewVar's rules.
func (m *Model) SetBounds(v Var, lo, hi float64) error {
	if err := m.checkVar(v); err != nil {
		return err
	}
	if err := checkBounds(m.names[v], lo, hi); err != nil {
		return err
	}
	m.lo[v] = lo
	m.hi[v] = hi
	return nil
}

func checkBounds(name string, lo, hi float64) error {
	if math.IsInf(lo, 0) || math.IsNaN(lo) {
		return fmt.Errorf("lp: variable %q: lower bound must be finite, got %v", name, lo)
	}
	if math.IsNaN(hi) || hi < lo {
		return fmt.Errorf("lp: variable %q: invalid bounds [%v, %v]", name, lo, hi)
	}
	return nil
}

// MustVar is NewVar for statically valid bounds; it panics on error and is
// intended for construction code where bounds are known constants.
func (m *Model) MustVar(name string, lo, hi float64) Var {
	v, err := m.NewVar(name, lo, hi)
	if err != nil {
		panic(err)
	}
	return v
}

// SetObjective sets the minimization objective to the given terms. Terms for
// the same variable accumulate. Variables not mentioned have coefficient 0.
func (m *Model) SetObjective(terms []Term) error {
	for i := range m.obj {
		m.obj[i] = 0
	}
	return m.addTerms(m.obj, terms)
}

// AddObjectiveTerm adds coef*v to the objective.
func (m *Model) AddObjectiveTerm(v Var, coef float64) error {
	return m.addTerms(m.obj, []Term{{Var: v, Coef: coef}})
}

// AddConstraint appends the constraint terms (sense) rhs. Terms referencing
// the same variable accumulate. An empty term list is rejected.
func (m *Model) AddConstraint(terms []Term, sense Sense, rhs float64) error {
	if len(terms) == 0 {
		return errors.New("lp: constraint with no terms")
	}
	if sense != LE && sense != GE && sense != EQ {
		return fmt.Errorf("lp: invalid sense %v", sense)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: invalid rhs %v", rhs)
	}
	for _, t := range terms {
		if err := m.checkVar(t.Var); err != nil {
			return err
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			return fmt.Errorf("lp: invalid coefficient %v for variable %q", t.Coef, m.names[t.Var])
		}
	}
	// Copy the terms at the boundary so later caller mutations cannot
	// corrupt the model.
	own := make([]Term, len(terms))
	copy(own, terms)
	m.rows = append(m.rows, row{terms: own, sense: sense, rhs: rhs})
	return nil
}

// MustConstraint is AddConstraint that panics on error, for construction
// code with statically valid inputs.
func (m *Model) MustConstraint(terms []Term, sense Sense, rhs float64) {
	if err := m.AddConstraint(terms, sense, rhs); err != nil {
		panic(err)
	}
}

func (m *Model) checkVar(v Var) error {
	if v < 0 || int(v) >= len(m.lo) {
		return fmt.Errorf("lp: unknown variable index %d", v)
	}
	return nil
}

func (m *Model) addTerms(dst []float64, terms []Term) error {
	for _, t := range terms {
		if err := m.checkVar(t.Var); err != nil {
			return err
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			return fmt.Errorf("lp: invalid coefficient %v for variable %q", t.Coef, m.names[t.Var])
		}
		dst[t.Var] += t.Coef
	}
	return nil
}

// Solution holds the result of a successful Solve.
type Solution struct {
	// Objective is the optimal value of the minimization objective.
	Objective float64

	values []float64
	// duals[i] is the dual multiplier of constraint i (sign follows the
	// convention: for a minimization with <= rows, duals are <= 0 ... we
	// report y such that c - yA has the optimality signs checked in tests).
	duals []float64
	// reduced[j] is the reduced cost of variable j at optimality.
	reduced []float64
}

// Value returns the optimal value of variable v.
func (s *Solution) Value(v Var) float64 { return s.values[v] }

// Values returns a copy of all variable values, indexed by Var.
func (s *Solution) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Dual returns the dual multiplier of constraint i (in insertion order).
func (s *Solution) Dual(i int) float64 { return s.duals[i] }

// ReducedCost returns the reduced cost of variable v at optimality.
func (s *Solution) ReducedCost(v Var) float64 { return s.reduced[v] }
