package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"flowtime/internal/flow"
	"flowtime/internal/lp"
)

// GenReservations draws the ad-hoc gate's reservation vector for an
// instance: per slot nothing (half the time) or up to a little more than
// the slot's capacity — the planner clamps. It is a function of the slot
// count, the capacities and the seed alone, so an instance shrunk by
// Shrink still has its reservations.
func GenReservations(in Instance, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	rsv := make([]int64, len(in.Caps))
	for t, c := range in.Caps {
		if r := rng.Int63n(c + 3); rng.Intn(2) == 0 {
			rsv[t] = r
		}
	}
	return rsv
}

// withReservations returns the instance with the planner's view of a
// reservation vector appended to its jobs: one one-slot job per slot
// holding R_t > 0, demand and cap R_t clamped to the slot's capacity. It
// restates core.stageA's construction on purpose — the relation below is
// about what the flow planner does with jobs of this shape routed last,
// whoever builds them.
func withReservations(in Instance, rsv []int64) Instance {
	out := Instance{Caps: in.Caps, Jobs: append([]Job(nil), in.Jobs...)}
	for t, c := range in.Caps {
		if r := min(rsv[t], c); r > 0 {
			out.Jobs = append(out.Jobs, Job{Demand: r, Rel: int64(t), Dl: int64(t) + 1, Cap: r})
		}
	}
	return out
}

// CheckReservationsYield asserts the relation that lets a gate
// reservation be planned as a one-slot job routed after every deadline
// job: (1) each deadline job's stage A shortfall is exactly its shortfall
// with no reservation at all; (2) the surviving reservations R' and the
// deadline demand that fits are jointly routable with no slot over its
// hard capacity — the stage B skyline of both carries deadline load + R'_t
// ≤ C_t everywhere; (3) ΣR' is the most any reservation-respecting plan
// could keep without costing deadline volume: the joint max flow minus
// the deadline jobs' own, both computed by the reference simplex.
func CheckReservationsYield(in Instance, rsv []int64, tol float64) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if len(rsv) != len(in.Caps) {
		return fmt.Errorf("oracle: %d reservations for %d slots", len(rsv), len(in.Caps))
	}
	n := len(in.Jobs)
	joint := withReservations(in, rsv)
	jobs := flowJobs(joint.Jobs)
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	// Earliest deadline first over the deadline jobs, as core orders them;
	// the reservations stay behind them in slot order.
	sort.SliceStable(order[:n], func(a, b int) bool { return jobs[order[a]].Dl < jobs[order[b]].Dl })

	bare, _, err := flow.Shortfall(in.Caps, jobs[:n], order[:n])
	if err != nil {
		return fmt.Errorf("oracle: stage A without reservations: %w", err)
	}
	short, _, err := flow.Shortfall(in.Caps, jobs, order)
	if err != nil {
		return fmt.Errorf("oracle: stage A with reservations: %w", err)
	}
	routed := int64(0)
	for i := 0; i < n; i++ {
		if short[i] != bare[i] {
			return fmt.Errorf("oracle: job %d is short %d beside reservations %v, %d without", i, short[i], rsv, bare[i])
		}
		routed += jobs[i].Demand - bare[i]
	}

	fits := append([]flow.Job(nil), jobs...)
	kept := make([]int64, len(in.Caps))
	keptSum := int64(0)
	for i, s := range short {
		fits[i].Demand -= s
		if i >= n {
			kept[jobs[i].Rel] = fits[i].Demand
			keptSum += fits[i].Demand
		}
	}
	sky, err := flow.LexMinMax(in.Caps, fits, 0)
	if err != nil {
		return fmt.Errorf("oracle: stage B over deadline demand and surviving reservations %v: %w", kept, err)
	}
	for t, c := range in.Caps {
		load := float64(kept[t])
		for i := 0; i < n; i++ {
			if row := sky.Alloc[i]; row != nil && int64(t) >= jobs[i].Rel && int64(t) < jobs[i].Dl {
				load += row[int64(t)-jobs[i].Rel]
			}
		}
		if load > float64(c)+tol {
			return fmt.Errorf("oracle: slot %d carries deadline load + surviving reservation = %.9g over capacity %d", t, load, c)
		}
		if math.Abs(load-sky.Load[t]) > tol {
			return fmt.Errorf("oracle: slot %d: skyline load %.9g, deadline load + surviving reservation %.9g", t, sky.Load[t], load)
		}
	}

	refDeadline, err := MaxFlowLP(in)
	if err != nil {
		return err
	}
	refJoint, err := MaxFlowLP(joint)
	if err != nil {
		return err
	}
	if math.Abs(float64(routed)-refDeadline) > tol {
		return fmt.Errorf("oracle: stage A routes %d of the deadline demand, reference max flow %.9g", routed, refDeadline)
	}
	if math.Abs(float64(keptSum)-(refJoint-refDeadline)) > tol {
		return fmt.Errorf("oracle: reservations %v keep %d in total, reference joint − deadline max flow = %.9g − %.9g",
			rsv, keptSum, refJoint, refDeadline)
	}
	return nil
}

// MaxFlowLP is the reference for stage A's total: the most demand the
// instance's windows, parallelism caps and hard slot capacities admit,
// by the simplex on the transportation LP (maximize Σx subject to
// Σ_t x_jt ≤ Demand_j, Σ_j x_jt ≤ Caps_t, 0 ≤ x_jt ≤ Cap_j).
func MaxFlowLP(in Instance) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	model := lp.NewModel()
	slotTerms := make([][]lp.Term, len(in.Caps))
	for _, job := range in.Jobs {
		if job.Demand <= 0 || job.Cap <= 0 {
			continue
		}
		var terms []lp.Term
		for t := job.Rel; t < job.Dl; t++ {
			v, err := model.NewVar("", 0, float64(job.Cap))
			if err != nil {
				return 0, fmt.Errorf("oracle: %w", err)
			}
			if err := model.AddObjectiveTerm(v, -1); err != nil {
				return 0, fmt.Errorf("oracle: %w", err)
			}
			terms = append(terms, lp.Term{Var: v, Coef: 1})
			slotTerms[t] = append(slotTerms[t], lp.Term{Var: v, Coef: 1})
		}
		if err := model.AddConstraint(terms, lp.LE, float64(job.Demand)); err != nil {
			return 0, fmt.Errorf("oracle: %w", err)
		}
	}
	for t, terms := range slotTerms {
		if len(terms) == 0 {
			continue
		}
		if err := model.AddConstraint(terms, lp.LE, float64(in.Caps[t])); err != nil {
			return 0, fmt.Errorf("oracle: %w", err)
		}
	}
	if model.NumVars() == 0 {
		return 0, nil
	}
	sol, err := model.Solve()
	if err != nil {
		return 0, fmt.Errorf("oracle: max-flow LP: %w", err)
	}
	return -sol.Objective, nil
}
