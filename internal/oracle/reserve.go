package oracle

import (
	"fmt"
	"math/rand"
	"sort"

	"flowtime/internal/flow"
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
// hard capacity — the certified stage B skyline of both has its top
// level at or under 1; (3) ΣR' is the most any reservation-respecting
// plan could keep without costing deadline volume: the joint max flow
// minus the deadline jobs' own, both certified by their min cuts
// (CheckRouting).
func CheckReservationsYield(in Instance, rsv []int64) error {
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

	bare, err := flow.Shortfall(in.Caps, jobs[:n], order[:n])
	if err != nil {
		return fmt.Errorf("oracle: stage A without reservations: %w", err)
	}
	if err := CheckRouting(in, order[:n], bare); err != nil {
		return fmt.Errorf("stage A without reservations: %w", err)
	}
	with, err := flow.Shortfall(in.Caps, jobs, order)
	if err != nil {
		return fmt.Errorf("oracle: stage A with reservations: %w", err)
	}
	if err := CheckRouting(joint, order, with); err != nil {
		return fmt.Errorf("stage A with reservations: %w", err)
	}
	for i := 0; i < n; i++ {
		if with.Short[i] != bare.Short[i] {
			return fmt.Errorf("oracle: job %d is short %d beside reservations %v, %d without", i, with.Short[i], rsv, bare.Short[i])
		}
	}

	fits := Instance{Caps: in.Caps, Jobs: append([]Job(nil), joint.Jobs...)}
	for i, s := range with.Short {
		fits.Jobs[i].Demand -= s
	}
	sol, err := SolveFlow(fits)
	if err != nil || !sol.Feasible {
		return fmt.Errorf("oracle: stage B over deadline demand and surviving reservations (feasible %v): %v", sol != nil && sol.Feasible, err)
	}
	if err := CheckSolution(fits, sol.Sky); err != nil {
		return fmt.Errorf("stage B over deadline demand and surviving reservations: %w", err)
	}
	if lv := sol.Sky.Levels; len(lv) > 0 && lv[0].Num > lv[0].Den {
		return fmt.Errorf("oracle: deadline load and surviving reservations %v reach level %d/%d over hard capacity", rsv, lv[0].Num, lv[0].Den)
	}
	return nil
}
