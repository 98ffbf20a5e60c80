// Planner probe: one replan's skyline at the paper's Fig. 7 scale, by the
// production flow planner (internal/flow) and, on the three small sizes,
// by the reference simplex (lp.LexMinMax) on the same instance — written
// to BENCH_lp.json so the planner's perf trajectory, and its agreement
// with the reference solver, are tracked alongside the control plane's.
// The large probe (5k jobs x 1k slots) is the flow planner alone: the
// reference simplex is dense and cold on purpose and has no business
// there.
package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"flowtime/internal/flow"
	"flowtime/internal/lp"
	"flowtime/internal/oracle"
)

// lpReport is the BENCH_lp.json document.
type lpReport struct {
	stamp
	Iters int `json:"iters_per_size"`

	Probes []lpProbeResult `json:"probes"`
}

// lpProbeResult is one instance size: the flow planner, and where it ran
// the reference simplex beside it. Every wall time is the median over
// the arm's calls, each timed on its own, with the fastest and slowest
// call beside it.
type lpProbeResult struct {
	Jobs  int `json:"jobs"`
	Slots int `json:"slots"`

	// FlowIters is the flow arm's call count (never under 5: the arm is
	// cheap, and a median of fewer has no error bar).
	FlowIters   int        `json:"flow_iters"`
	FlowWallMS  float64    `json:"flow_wall_ms"`
	FlowRangeMS [2]float64 `json:"flow_wall_range_ms"`
	// FlowLevels is the number of skyline levels the flow planner solved
	// (capped like the simplex's rounds), FlowMaxFlows the max-flow
	// computations that took, from scratch and resumed.
	FlowLevels   int `json:"flow_levels"`
	FlowMaxFlows int `json:"flow_max_flows"`
	// Simplex is the reference simplex's arm, nil on the large probe.
	Simplex *lpSimplexArm `json:"simplex,omitempty"`
}

// lpSimplexArm is the reference simplex beside the flow planner: Iters
// calls with rounds capped as the flow arm's levels are. The instance is
// fixed and every call starts cold, so Rounds (min-θ LPs), Pivots and
// Refactors are the same every call.
type lpSimplexArm struct {
	Iters     int        `json:"iters"`
	WallMS    float64    `json:"wall_ms"`
	RangeMS   [2]float64 `json:"wall_range_ms"`
	Rounds    int        `json:"rounds"`
	Pivots    int        `json:"pivots"`
	Refactors int        `json:"refactors"`
	// OverFlow is the simplex arm's median call over the flow arm's: what
	// a replan would pay to plan by simplex instead.
	OverFlow float64 `json:"simplex_over_flow"`
	// FlowLevelDiff is the largest per-slot gap between the flow planner's
	// and the simplex's normalized levels, both run untimed to the exact
	// optimum, which is unique per slot.
	FlowLevelDiff float64 `json:"flow_level_diff"`
}

// lpRounds caps the simplex's min-θ rounds and the flow planner's levels
// alike in the timed arms.
const lpRounds = 6

// minFlowIters is the floor on the flow arm's call count.
const minFlowIters = 5

// lpSizes are the probed instance shapes (oracle.ProbeInstance). The
// three small sizes carry the simplex arm and the exact comparison; the
// Fig. 7 scale ceiling (5k jobs x 1k slots) runs the flow planner only.
var lpSizes = []struct {
	jobs, slots int
	maxWin      int  // cap on per-job window length in slots (0 = unbounded)
	simplex     bool // run the reference simplex beside the flow planner
}{
	{50, 100, 0, true},
	{100, 100, 0, true},
	{200, 150, 0, true},
	// Windows bounded at 12 slots: real deadline windows are short
	// relative to a 1k-slot horizon.
	{5000, 1000, 12, false},
}

// lpModel builds the instance's stage-B LP: a variable per (job, window
// slot), an exact-demand row per job, a load group per covered slot.
// groupSlot maps each group back to its slot.
func lpModel(in oracle.Instance) (m *lp.Model, groups []lp.LoadGroup, groupSlot []int, err error) {
	m = lp.NewModel()
	groupTerms := make([][]lp.Term, len(in.Caps))
	for _, job := range in.Jobs {
		terms := make([]lp.Term, 0, job.Dl-job.Rel)
		for s := job.Rel; s < job.Dl; s++ {
			v, err := m.NewVar("", 0, float64(job.Cap))
			if err != nil {
				return nil, nil, nil, err
			}
			terms = append(terms, lp.Term{Var: v, Coef: 1})
			groupTerms[s] = append(groupTerms[s], lp.Term{Var: v, Coef: 1})
		}
		if err := m.AddConstraint(terms, lp.EQ, float64(job.Demand)); err != nil {
			return nil, nil, nil, err
		}
	}
	for s, c := range in.Caps {
		if len(groupTerms[s]) == 0 {
			continue
		}
		groups = append(groups, lp.LoadGroup{Terms: groupTerms[s], Cap: float64(c)})
		groupSlot = append(groupSlot, s)
	}
	return m, groups, groupSlot, nil
}

// timeCalls runs call n times, timing each on its own, and returns the
// median and the [fastest, slowest] pair, in milliseconds.
func timeCalls(n int, call func() error) (median float64, span [2]float64, err error) {
	ms := make([]float64, n)
	for i := range ms {
		start := time.Now()
		if err := call(); err != nil {
			return 0, span, err
		}
		ms[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	median = ms[n/2]
	if n%2 == 0 {
		median = (ms[n/2-1] + ms[n/2]) / 2
	}
	return median, [2]float64{ms[0], ms[n-1]}, nil
}

// lpProbe runs the flow planner, and the simplex where the size carries
// it, and returns the filled report.
func lpProbe(iters int) (lpReport, error) {
	rep := lpReport{Iters: iters}
	for _, size := range lpSizes {
		in := oracle.ProbeInstance(size.jobs, size.slots, size.maxWin)
		jobs := make([]flow.Job, len(in.Jobs))
		for i, j := range in.Jobs {
			jobs[i] = flow.Job(j)
		}
		res := lpProbeResult{Jobs: size.jobs, Slots: size.slots, FlowIters: max(iters, minFlowIters)}
		fail := func(arm string, err error) (lpReport, error) {
			return rep, fmt.Errorf("%s %dx%d: %w", arm, size.jobs, size.slots, err)
		}

		// Flow: the production planner, from scratch every call, the way
		// a replan runs it.
		var err error
		res.FlowWallMS, res.FlowRangeMS, err = timeCalls(res.FlowIters, func() error {
			sky, err := flow.LexMinMax(in.Caps, jobs, lpRounds)
			if err == nil {
				res.FlowLevels = sky.Levels
				res.FlowMaxFlows = sky.Work.MaxFlows + sky.Work.Resumed
			}
			return err
		})
		if err != nil {
			return fail("flow", err)
		}

		if size.simplex {
			base, groups, groupSlot, err := lpModel(in)
			if err != nil {
				return fail("simplex model", err)
			}
			arm := &lpSimplexArm{Iters: iters}
			arm.WallMS, arm.RangeMS, err = timeCalls(iters, func() error {
				r, err := lp.LexMinMax(base, groups, lpRounds)
				if err == nil {
					arm.Rounds, arm.Pivots, arm.Refactors = r.Rounds, r.Stats.Pivots, r.Stats.Refactors
				}
				return err
			})
			if err != nil {
				return fail("simplex", err)
			}
			arm.OverFlow = arm.WallMS / res.FlowWallMS

			sky, err := flow.LexMinMax(in.Caps, jobs, 0)
			if err != nil {
				return fail("exact flow", err)
			}
			exact, err := lp.LexMinMax(base, groups, 0)
			if err != nil {
				return fail("exact simplex", err)
			}
			for gi, t := range groupSlot {
				arm.FlowLevelDiff = max(arm.FlowLevelDiff, math.Abs(sky.Level[t]-exact.Levels[gi]))
			}
			res.Simplex = arm
		}
		rep.Probes = append(rep.Probes, res)
	}
	return rep, nil
}

// lpLevelTol is the per-slot agreement the guard demands between the flow
// planner and the simplex (the simplex freezes levels at 1e-6).
const lpLevelTol = 1e-5

// lpGuard checks the report against the two gates that protect the
// product and returns the violations (empty = pass): at the 200x150
// probe the flow planner's exact levels must equal the simplex's per
// slot, and at the 5kx1k probe a flow replan must stay under one second.
func lpGuard(rep lpReport) []string {
	var fails []string
	for _, p := range rep.Probes {
		switch {
		case p.Jobs == 200 && p.Slots == 150:
			if p.Simplex == nil {
				fails = append(fails, fmt.Sprintf("lp-guard %dx%d: the simplex arm did not run", p.Jobs, p.Slots))
			} else if d := p.Simplex.FlowLevelDiff; d > lpLevelTol {
				fails = append(fails, fmt.Sprintf(
					"lp-guard %dx%d: flow and simplex levels differ by %.3g, want <= %g", p.Jobs, p.Slots, d, lpLevelTol))
			}
		case p.Jobs == 5000 && p.Slots == 1000:
			if p.FlowWallMS >= 1000 {
				fails = append(fails, fmt.Sprintf(
					"lp-guard %dx%d: flow replan %.1fms >= 1000ms", p.Jobs, p.Slots, p.FlowWallMS))
			}
		}
	}
	return fails
}
