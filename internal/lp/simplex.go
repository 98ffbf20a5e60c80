package lp

import (
	"fmt"
	"math"
	"time"
)

const (
	// costTol is the reduced-cost tolerance for optimality.
	costTol = 1e-9
	// feasTol is the bound/feasibility tolerance.
	feasTol = 1e-9
	// phase1Tol decides whether the phase-1 objective is "zero".
	phase1Tol = 1e-7
	// degenerateLimit is the number of consecutive degenerate pivots after
	// which the pricing rule switches to Bland's rule (anti-cycling).
	degenerateLimit = 64
	// refactorEvery is the pivot interval between basis refactorizations.
	refactorEvery = 256
	// The pivot budget per phase is iterCapPerDim*(rows+cols) + iterCapBase.
	// No well-posed model comes near it (Klee-Minty's exponential path
	// included, at the sizes tested); exhausting it returns
	// ErrIterationLimit instead of grinding on.
	iterCapPerDim = 200
	iterCapBase   = 20000
)

type varStatus uint8

const (
	atLower varStatus = iota + 1
	atUpper
	inBasis
)

// sparseCol is one column of the constraint matrix.
type sparseCol struct {
	rows []int
	vals []float64
}

// simplex is the computational state for one Solve call.
type simplex struct {
	m int // rows
	n int // total columns (structural + slack + artificial)

	nStruct int
	nArt    int // artificial count (placed at the end)

	cols []sparseCol
	lo   []float64
	hi   []float64
	b    []float64
	cost []float64 // phase-specific objective

	status   []varStatus
	xN       []float64 // value for nonbasic vars (their active bound)
	basicVar []int     // basicVar[r] = column basic in row r
	rowOf    []int     // rowOf[j] = row where j is basic, or -1
	binv     *basisInverse
	xB       []float64

	y      []float64 // dual vector, maintained incrementally across pivots
	yValid bool
	w      []float64 // pivot column scratch
	resid  []float64 // scratch for recomputeXB
	pivots int
	degen  int
	bland  bool
	// blandPivots counts pivots taken under the anti-cycling rule (see
	// SolveStats.BlandPivots).
	blandPivots int
	refactors   int
	// maxIter caps pivots per phase.
	maxIter int
	// priceStart rotates the partial-pricing scan so successive iterations
	// do not always favour low-index columns.
	priceStart int
}

// Solve optimizes the model and returns the optimal solution. It returns
// ErrInfeasible, ErrUnbounded, ErrIterationLimit (pivot budget exhausted)
// or ErrNumerical (final basis failed the sanity check) on failure.
// Solve does not mutate the model and may be called repeatedly (e.g. after
// adding constraints).
func (m *Model) Solve() (*Solution, error) {
	sol, _, err := m.SolveWithStats()
	return sol, err
}

// SolveWithStats is Solve that also reports what the solve cost. The
// stats are valid even when the solve fails.
func (m *Model) SolveWithStats() (*Solution, SolveStats, error) {
	start := time.Now()
	s := newSimplex(m)
	sol, err := s.solve(m)
	return sol, SolveStats{
		Pivots:      s.pivots,
		BlandPivots: s.blandPivots,
		Refactors:   s.refactors,
		Duration:    time.Since(start),
	}, err
}

// solve runs both phases from the all-artificial starting basis.
func (s *simplex) solve(m *Model) (*Solution, error) {
	// Phase I: minimize the sum of artificial variables.
	for j := s.n - s.nArt; j < s.n; j++ {
		s.cost[j] = 1
	}
	if err := s.iterate(true); err != nil {
		return nil, err
	}
	if obj := s.objective(); obj > phase1Tol {
		return nil, fmt.Errorf("%w (phase-1 residual %g)", ErrInfeasible, obj)
	}
	// Freeze artificials at zero so they can never carry value again.
	for j := s.n - s.nArt; j < s.n; j++ {
		s.cost[j] = 0
		s.hi[j] = 0
		if s.status[j] != inBasis {
			s.status[j] = atLower
			s.xN[j] = 0
		}
	}

	// Phase II: minimize the real objective.
	copy(s.cost, m.obj)
	s.bland = false
	s.degen = 0
	if err := s.iterate(false); err != nil {
		return nil, err
	}
	if err := s.checkNumerics(); err != nil {
		return nil, err
	}
	return s.solution(m), nil
}

// checkNumerics guards the callers above the solver: a basis whose values
// went NaN/Inf or drifted grossly outside their bounds must not be handed
// out as an optimal solution. The tolerance is loose — relative, well
// above the pivot tolerances — so it only fires on genuine breakdown, not
// on the marginal drift that solution() already snaps back to bounds.
func (s *simplex) checkNumerics() error {
	for r := 0; r < s.m; r++ {
		v := s.xB[r]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: basic value %v in row %d", ErrNumerical, v, r)
		}
		bv := s.basicVar[r]
		tol := 1e-5 * (1 + math.Abs(v))
		if v < s.lo[bv]-tol {
			return fmt.Errorf("%w: basic value %g below lower bound %g", ErrNumerical, v, s.lo[bv])
		}
		if hi := s.hi[bv]; !math.IsInf(hi, 1) && v > hi+tol {
			return fmt.Errorf("%w: basic value %g above upper bound %g", ErrNumerical, v, hi)
		}
	}
	return nil
}

// newSimplex builds the computational form: one slack per inequality row,
// artificials forming the initial basis.
func newSimplex(m *Model) *simplex {
	nRows := len(m.rows)
	nStruct := len(m.lo)
	nSlack := 0
	for _, r := range m.rows {
		if r.sense != EQ {
			nSlack++
		}
	}
	n := nStruct + nSlack + nRows // artificials sized below; worst case one per row
	s := &simplex{
		m:       nRows,
		nStruct: nStruct,
		cols:    make([]sparseCol, 0, n),
		lo:      make([]float64, 0, n),
		hi:      make([]float64, 0, n),
		b:       make([]float64, nRows),
		status:  make([]varStatus, 0, n),
		xN:      make([]float64, 0, n),
	}

	// Structural columns.
	colTerms := make([][]Term, nStruct)
	for i, r := range m.rows {
		s.b[i] = r.rhs
		for _, t := range r.terms {
			colTerms[t.Var] = append(colTerms[t.Var], Term{Var: Var(i), Coef: t.Coef})
		}
	}
	for j := 0; j < nStruct; j++ {
		col := sparseCol{}
		// Merge duplicate row entries deterministically (terms were appended
		// in row order, so equal rows are adjacent).
		for _, t := range colTerms[j] {
			r := int(t.Var)
			if k := len(col.rows); k > 0 && col.rows[k-1] == r {
				col.vals[k-1] += t.Coef
				continue
			}
			col.rows = append(col.rows, r)
			col.vals = append(col.vals, t.Coef)
		}
		s.cols = append(s.cols, col)
		s.lo = append(s.lo, m.lo[j])
		s.hi = append(s.hi, m.hi[j])
	}

	// Slack columns: LE rows get +1 slack, GE rows get -1 slack; both slacks
	// live in [0, +inf).
	for i, r := range m.rows {
		if r.sense == EQ {
			continue
		}
		coef := 1.0
		if r.sense == GE {
			coef = -1.0
		}
		s.cols = append(s.cols, sparseCol{rows: []int{i}, vals: []float64{coef}})
		s.lo = append(s.lo, 0)
		s.hi = append(s.hi, Inf)
	}

	// Nonbasic start: everything at its lower bound.
	nNow := len(s.cols)
	s.status = s.status[:0]
	for j := 0; j < nNow; j++ {
		s.status = append(s.status, atLower)
		s.xN = append(s.xN, s.lo[j])
	}

	// Residual r = b - A x_N decides artificial signs.
	resid := make([]float64, nRows)
	copy(resid, s.b)
	for j := 0; j < nNow; j++ {
		if x := s.xN[j]; x != 0 {
			c := &s.cols[j]
			for k, r := range c.rows {
				resid[r] -= c.vals[k] * x
			}
		}
	}

	s.basicVar = make([]int, nRows)
	s.xB = make([]float64, nRows)
	diag := make([]float64, nRows)
	for i := 0; i < nRows; i++ {
		coef := 1.0
		if resid[i] < 0 {
			coef = -1.0
		}
		s.cols = append(s.cols, sparseCol{rows: []int{i}, vals: []float64{coef}})
		s.lo = append(s.lo, 0)
		s.hi = append(s.hi, Inf)
		s.status = append(s.status, inBasis)
		s.xN = append(s.xN, 0)
		s.basicVar[i] = len(s.cols) - 1
		s.xB[i] = math.Abs(resid[i])
		diag[i] = coef
	}
	s.nArt = nRows
	s.n = len(s.cols)
	s.cost = make([]float64, s.n)
	s.rowOf = make([]int, s.n)
	for j := range s.rowOf {
		s.rowOf[j] = -1
	}
	for i, j := range s.basicVar {
		s.rowOf[j] = i
	}
	s.y = make([]float64, nRows)
	s.w = make([]float64, nRows)
	s.resid = make([]float64, nRows)
	s.binv = newBasisInverse(diag)
	s.maxIter = iterCapPerDim*(s.m+s.n) + iterCapBase
	return s
}

// objective returns the current objective value under s.cost.
func (s *simplex) objective() float64 {
	obj := 0.0
	for j := 0; j < s.n; j++ {
		switch s.status[j] {
		case inBasis:
			obj += s.cost[j] * s.xB[s.rowOf[j]]
		default:
			obj += s.cost[j] * s.xN[j]
		}
	}
	return obj
}

// iterate runs primal simplex pivots until optimality under s.cost.
func (s *simplex) iterate(phase1 bool) error {
	s.yValid = false // the objective may have changed between phases
	for iter := 0; iter < s.maxIter; iter++ {
		if s.pivots > 0 && s.pivots%refactorEvery == 0 {
			if err := s.refactorize(); err != nil {
				return err
			}
			s.pivots++ // avoid immediate re-refactorization
			s.yValid = false
		}
		if !s.yValid {
			s.computeDuals()
			s.yValid = true
		}
		j, dir, dj := s.chooseEntering()
		if j < 0 {
			return nil // optimal
		}
		s.computeDirection(j)
		if err := s.pivot(j, dir, dj, phase1); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w after %d pivots", ErrIterationLimit, s.pivots)
}

// computeDuals solves B^T y = c_B (BTRAN).
func (s *simplex) computeDuals() {
	for r := 0; r < s.m; r++ {
		s.y[r] = s.cost[s.basicVar[r]]
	}
	s.binv.btranIn(s.y)
}

// reducedCost returns c_j - y·A_j.
func (s *simplex) reducedCost(j int) float64 {
	d := s.cost[j]
	c := &s.cols[j]
	for k, r := range c.rows {
		d -= s.y[r] * c.vals[k]
	}
	return d
}

// chooseEntering picks the entering variable. dir is +1 when the variable
// increases from its lower bound, -1 when it decreases from its upper
// bound; dj is the entering variable's reduced cost. Returns j = -1 at
// optimality.
//
// Pricing is Dantzig with cyclic partial pricing: the scan starts where
// the previous one left off and stops early once enough violating
// candidates have been seen. A scan that wraps the whole column range
// without finding a violation proves optimality. Under Bland's rule the
// scan is full and lowest-index-first (required for the anti-cycling
// guarantee).
func (s *simplex) chooseEntering() (j, dir int, dj float64) {
	// maxEligible trades scan cost against pivot quality.
	const maxEligible = 96
	j = -1
	best := 0.0
	eligible := 0
	start := s.priceStart
	if s.bland {
		start = 0
	}
	for k := 0; k < s.n; k++ {
		cand := start + k
		if cand >= s.n {
			cand -= s.n
		}
		st := s.status[cand]
		if st == inBasis {
			continue
		}
		if s.lo[cand] == s.hi[cand] {
			continue // fixed variable can never improve
		}
		d := s.reducedCost(cand)
		var viol float64
		var cdir int
		switch st {
		case atLower:
			if d < -costTol {
				viol, cdir = -d, 1
			}
		case atUpper:
			if d > costTol {
				viol, cdir = d, -1
			}
		}
		if cdir == 0 {
			continue
		}
		if s.bland {
			return cand, cdir, d // Bland: first eligible index
		}
		if viol > best {
			best, j, dir = viol, cand, cdir
			dj = d
		}
		eligible++
		if eligible >= maxEligible {
			break
		}
	}
	if j >= 0 {
		s.priceStart = j + 1
		if s.priceStart >= s.n {
			s.priceStart = 0
		}
	}
	return j, dir, dj
}

// computeDirection solves B w = A_j (FTRAN).
func (s *simplex) computeDirection(j int) {
	s.binv.ftranCol(&s.cols[j], s.w)
}

// pivot performs the ratio test and basis change for entering variable j
// moving in direction dir; dj is j's reduced cost, used for the O(m)
// incremental dual update.
func (s *simplex) pivot(j, dir int, dj float64, phase1 bool) error {
	// Rate of change of basic variable in row r per unit step: -dir * w[r].
	limit := math.Inf(1)
	leave := -1           // row index of the leaving variable
	leaveToUpper := false // which bound the leaving variable hits

	span := s.hi[j] - s.lo[j] // bound-flip limit
	if span < limit {
		limit = span
		leave = -2 // sentinel: bound flip
	}

	for r := 0; r < s.m; r++ {
		delta := -float64(dir) * s.w[r]
		bv := s.basicVar[r]
		var t float64
		var toUpper bool
		switch {
		case delta < -feasTol:
			t = (s.xB[r] - s.lo[bv]) / (-delta)
		case delta > feasTol:
			if math.IsInf(s.hi[bv], 1) {
				continue
			}
			t = (s.hi[bv] - s.xB[r]) / delta
			toUpper = true
		default:
			continue
		}
		if t < 0 {
			t = 0
		}
		switch {
		case t < limit-feasTol:
			limit, leave, leaveToUpper = t, r, toUpper
		case t < limit+feasTol && leave >= 0 && shouldPreferLeaving(s, r, leave):
			if t < limit {
				limit = t
			}
			leave, leaveToUpper = r, toUpper
		}
	}

	if math.IsInf(limit, 1) {
		if phase1 {
			return fmt.Errorf("lp: internal: phase-1 unbounded (pivot %d)", s.pivots)
		}
		return ErrUnbounded
	}

	if limit < feasTol {
		s.degen++
		if s.degen >= degenerateLimit {
			s.bland = true
		}
	} else {
		s.degen = 0
		if s.bland {
			s.bland = false
		}
	}

	if leave == -2 {
		// Bound flip: j moves across its span without a basis change.
		s.applyStep(dir, limit)
		if s.status[j] == atLower {
			s.status[j] = atUpper
			s.xN[j] = s.hi[j]
		} else {
			s.status[j] = atLower
			s.xN[j] = s.lo[j]
		}
		s.pivots++
		if s.bland {
			s.blandPivots++
		}
		return nil
	}

	// Regular pivot: j enters the basis at value bound + dir*limit, the
	// variable in row `leave` exits to one of its bounds.
	enterVal := s.xN[j] + float64(dir)*limit
	s.applyStep(dir, limit)

	out := s.basicVar[leave]
	s.rowOf[out] = -1
	if leaveToUpper {
		s.status[out] = atUpper
		s.xN[out] = s.hi[out]
	} else {
		s.status[out] = atLower
		s.xN[out] = s.lo[out]
	}

	piv := s.w[leave]
	if math.Abs(piv) < 1e-12 {
		// The pivot element collapsed numerically; refactorize and retry on
		// the next iteration rather than dividing by ~0.
		s.status[out] = inBasis // undo
		s.rowOf[out] = leave
		s.yValid = false
		return s.refactorize()
	}

	// Incremental dual update: y' = y + (d_j / w_r) * (old row r of
	// Binv), which zeroes the entering column's reduced cost. O(m)
	// instead of the O(m^2) from-scratch recomputation.
	theta := dj / piv
	for i, v := range s.binv.row(leave) {
		s.y[i] += theta * v
	}

	// s.w still holds B^-1*A_j, which is what the inverse update needs.
	s.binv.update(leave, s.w)
	s.basicVar[leave] = j
	s.rowOf[j] = leave
	s.status[j] = inBasis
	s.xB[leave] = enterVal
	s.pivots++
	if s.bland {
		s.blandPivots++
	}
	return nil
}

// shouldPreferLeaving breaks ratio-test ties: under Bland's rule pick the
// lowest variable index; otherwise pick the larger pivot magnitude for
// numerical stability.
func shouldPreferLeaving(s *simplex, cand, incumbent int) bool {
	if s.bland {
		return s.basicVar[cand] < s.basicVar[incumbent]
	}
	return math.Abs(s.w[cand]) > math.Abs(s.w[incumbent])
}

// applyStep moves every basic variable by -dir*t*w.
func (s *simplex) applyStep(dir int, t float64) {
	if t == 0 {
		return
	}
	step := float64(dir) * t
	for r := 0; r < s.m; r++ {
		s.xB[r] -= step * s.w[r]
	}
}

// refactorize rebuilds the basis inverse from the basis columns and
// recomputes the basic values xB = B^-1 (b - N x_N), clearing accumulated
// floating-point drift.
func (s *simplex) refactorize() error {
	if err := s.binv.refactor(s.cols, s.basicVar); err != nil {
		return err
	}
	s.refactors++
	resid := s.resid
	copy(resid, s.b)
	for j := 0; j < s.n; j++ {
		if s.status[j] == inBasis {
			continue
		}
		if x := s.xN[j]; x != 0 {
			c := &s.cols[j]
			for k, r := range c.rows {
				resid[r] -= c.vals[k] * x
			}
		}
	}
	s.binv.ftranIn(resid)
	copy(s.xB, resid)
	return nil
}

// solution extracts values, duals and reduced costs for the original model.
func (s *simplex) solution(m *Model) *Solution {
	sol := &Solution{
		values:  make([]float64, m.NumVars()),
		duals:   make([]float64, s.m),
		reduced: make([]float64, m.NumVars()),
	}
	for j := 0; j < m.NumVars(); j++ {
		if s.status[j] == inBasis {
			sol.values[j] = s.xB[s.rowOf[j]]
		} else {
			sol.values[j] = s.xN[j]
		}
		// Snap values that drifted marginally outside their bounds.
		if sol.values[j] < m.lo[j] {
			sol.values[j] = m.lo[j]
		}
		if sol.values[j] > m.hi[j] {
			sol.values[j] = m.hi[j]
		}
	}
	s.computeDuals()
	copy(sol.duals, s.y)
	for j := 0; j < m.NumVars(); j++ {
		sol.reduced[j] = s.reducedCost(j)
	}
	for j, c := range m.obj {
		sol.Objective += c * sol.values[j]
	}
	return sol
}
