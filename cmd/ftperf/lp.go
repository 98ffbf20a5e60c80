// Planner probe: one replan's skyline at the paper's Fig. 7 scale, by the
// production flow planner (internal/flow) and by the reference simplex
// (lp.LexMinMax) on the same instance — the simplex warm (one workspace
// carried across calls), cold (legacy clone-per-round) and on the legacy
// dense basis inverse — written to BENCH_lp.json so the planner's and
// the reference solver's perf trajectories are tracked alongside the
// control plane's. The large probe (5k jobs x 1k slots) records the
// scale ceiling of both: the flow planner's wall time, and the sparse LU
// core's fill-in ratio, refactorization rate and peak eta-file length.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"flowtime/internal/flow"
	"flowtime/internal/lp"
)

// lpReport is the BENCH_lp.json document.
type lpReport struct {
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Iters     int    `json:"iters_per_size"`

	Probes []lpProbeResult `json:"probes"`
}

// lpProbeResult is one instance size: the flow planner beside the
// simplex warm, cold and dense. Every wall time is the median over the
// arm's calls, each timed on its own, with the fastest and slowest call
// beside it.
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
	// FlowLPLevelDiff is the largest per-slot gap between the flow
	// planner's and the sparse simplex's normalized levels with both run
	// to the exact optimum; FlowLPCompared is false where that was
	// skipped (the exact simplex is only affordable on the small probes).
	FlowLPCompared  bool    `json:"flow_lp_compared"`
	FlowLPLevelDiff float64 `json:"flow_lp_level_diff"`
	// Speedup is what a replan paid with the simplex — the warm arm's
	// first call, which builds the θ-model and cold-starts its basis, as
	// every replan did with a workspace of its own — over the flow
	// planner's median.
	Speedup float64 `json:"flow_speedup"`

	// Rounds is the LexMinMax round count of the last warm call (the
	// instance is fixed, so every call converges in the same rounds).
	Rounds int `json:"rounds"`
	// Iters is the simplex arms' call count for this size (the large
	// probe enforces a floor so the warm-hit rate is meaningful).
	Iters       int        `json:"iters"`
	WarmWallMS  float64    `json:"warm_wall_ms"`
	WarmRangeMS [2]float64 `json:"warm_wall_range_ms"`
	// WarmFirstMS is the warm arm's first call alone: later calls re-solve
	// the identical instance from its own optimal basis, which no replan
	// on changed inputs gets to do.
	WarmFirstMS float64    `json:"warm_first_ms"`
	ColdWallMS  float64    `json:"cold_wall_ms,omitempty"`
	ColdRangeMS [2]float64 `json:"cold_wall_range_ms,omitempty"`
	// DenseWallMS is the warm pipeline on the legacy dense basis inverse
	// (DenseBasis). 0 means the arm was skipped: at the large size the
	// explicit inverse alone is hundreds of MB.
	DenseWallMS  float64    `json:"dense_wall_ms,omitempty"`
	DenseRangeMS [2]float64 `json:"dense_wall_range_ms,omitempty"`
	// Pivots are per-call averages.
	WarmPivots float64 `json:"warm_pivots"`
	ColdPivots float64 `json:"cold_pivots,omitempty"`
	// WarmHitRate is warm starts over total inner solves on the warm
	// path (the first call cold-starts the shared model once).
	WarmHitRate float64 `json:"warm_hit_rate"`
	// Sparse-factor telemetry from the warm loop.
	FillIn    float64 `json:"fill_in"`   // peak nnz(L+U)/nnz(B) across factorizations
	Refactors float64 `json:"refactors"` // refactorizations per call (periodic + drift + rejection)
	MaxEta    int     `json:"max_eta"`   // peak Forrest–Tomlin eta-file length
}

// lpRounds caps the simplex's min-θ rounds and the flow planner's levels
// alike in the timed arms.
const lpRounds = 6

// minFlowIters is the floor on the flow arm's call count.
const minFlowIters = 5

// lpSizes are the probed instance shapes. The three small sizes carry
// every arm; the Fig. 7 scale ceiling (5k jobs x 1k slots) runs the flow
// planner and the default sparse simplex only — the dense inverse there
// is a ~6k x 6k float64 matrix (~300 MB) and the clone-per-round cold
// arm multiplies wall time without informing the trajectory.
var lpSizes = []struct {
	jobs, slots int
	maxWin      int  // cap on per-job window length in slots (0 = unbounded)
	minIters    int  // iteration floor so the warm-hit rate is meaningful
	refArms     bool // run the cold and dense reference arms and the exact comparison
}{
	{50, 100, 0, 0, true},
	{100, 100, 0, 0, true},
	{200, 150, 0, 0, true},
	// Windows bounded at 12 slots: real deadline windows are short
	// relative to a 1k-slot horizon, and the bound keeps the simplex's
	// ~30k-variable cold start inside a CI-tolerable wall time.
	{5000, 1000, 12, 3, false},
}

// slotCap is every probe slot's capacity.
const slotCap = 1000

// lpInstance draws a scheduling-shaped instance: jobs with interval
// windows, parallelism caps and integral demands on equal-capacity
// slots. Deterministic per size so runs are comparable. maxWin bounds
// the window length (deadline windows at real scale are short relative
// to the horizon); 0 leaves windows unbounded.
func lpInstance(jobs, slots, maxWin int) []flow.Job {
	rng := rand.New(rand.NewSource(int64(jobs*1000 + slots)))
	out := make([]flow.Job, jobs)
	for i := range out {
		rel := rng.Intn(slots - 1)
		win := 2 + rng.Intn(slots-rel-1)
		if maxWin > 0 && win > maxWin {
			win = maxWin
		}
		if rel+win > slots {
			win = slots - rel
		}
		par := int64(2 * (1 + rng.Intn(16)))
		out[i] = flow.Job{
			Demand: int64(1+rng.Intn(win)) * par / 2,
			Rel:    int64(rel),
			Dl:     int64(rel + win),
			Cap:    par,
		}
	}
	return out
}

// lpModel builds the instance's stage-B LP: a variable per (job, window
// slot), an exact-demand row per job, a load group per covered slot.
// groupSlot maps each group back to its slot.
func lpModel(jobs []flow.Job, slots int) (m *lp.Model, groups []lp.LoadGroup, groupSlot []int, err error) {
	m = lp.NewModel()
	groupTerms := make([][]lp.Term, slots)
	for _, job := range jobs {
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
	for s := 0; s < slots; s++ {
		if len(groupTerms[s]) == 0 {
			continue
		}
		groups = append(groups, lp.LoadGroup{Terms: groupTerms[s], Cap: slotCap})
		groupSlot = append(groupSlot, s)
	}
	return m, groups, groupSlot, nil
}

// timeCalls runs call n times, timing each on its own, and returns the
// median, the [fastest, slowest] pair and the first call, in
// milliseconds.
func timeCalls(n int, call func() error) (median float64, span [2]float64, first float64, err error) {
	ms := make([]float64, n)
	for i := range ms {
		start := time.Now()
		if err := call(); err != nil {
			return 0, span, 0, err
		}
		ms[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	first = ms[0]
	sort.Float64s(ms)
	median = ms[n/2]
	if n%2 == 0 {
		median = (ms[n/2-1] + ms[n/2]) / 2
	}
	return median, [2]float64{ms[0], ms[n-1]}, first, nil
}

// lpProbe runs the flow planner and the simplex warm, cold and dense at
// each size and returns the filled report.
func lpProbe(iters int) (lpReport, error) {
	rep := lpReport{Iters: iters}
	for _, size := range lpSizes {
		jobs := lpInstance(size.jobs, size.slots, size.maxWin)
		caps := make([]int64, size.slots)
		for t := range caps {
			caps[t] = slotCap
		}
		base, groups, groupSlot, err := lpModel(jobs, size.slots)
		if err != nil {
			return rep, err
		}
		n := max(iters, size.minIters)
		res := lpProbeResult{Jobs: size.jobs, Slots: size.slots, Iters: n, FlowIters: max(n, minFlowIters)}
		fail := func(arm string, err error) (lpReport, error) {
			return rep, fmt.Errorf("%s %dx%d: %w", arm, size.jobs, size.slots, err)
		}

		// Flow: the production planner, from scratch every call, the way
		// a replan runs it.
		res.FlowWallMS, res.FlowRangeMS, _, err = timeCalls(res.FlowIters, func() error {
			sky, err := flow.LexMinMax(caps, jobs, lpRounds)
			if err == nil {
				res.FlowLevels = sky.Levels
				res.FlowMaxFlows = sky.Work.MaxFlows + sky.Work.Resumed
			}
			return err
		})
		if err != nil {
			return fail("flow", err)
		}

		// Warm: one workspace across the loop. The first call cold-starts
		// the shared model.
		ws := &lp.LexWorkspace{}
		var warm lp.SolveStats
		res.WarmWallMS, res.WarmRangeMS, res.WarmFirstMS, err = timeCalls(n, func() error {
			r, err := lp.LexMinMaxWithOptions(base, groups, lp.MinMaxOptions{MaxRounds: lpRounds, Workspace: ws})
			if err == nil {
				warm.Add(r.Stats)
				res.Rounds = r.Rounds
			}
			return err
		})
		if err != nil {
			return fail("warm", err)
		}

		var cold lp.SolveStats
		if size.refArms {
			res.ColdWallMS, res.ColdRangeMS, _, err = timeCalls(n, func() error {
				r, err := lp.LexMinMaxWithOptions(base, groups, lp.MinMaxOptions{MaxRounds: lpRounds, DisableWarmStart: true})
				if err == nil {
					cold.Add(r.Stats)
				}
				return err
			})
			if err != nil {
				return fail("cold", err)
			}

			// Dense reference: the same warm pipeline on the legacy
			// explicit basis inverse. This is the wall-time baseline the
			// sparse LU core must beat (enforced by -lp-guard).
			dws := &lp.LexWorkspace{}
			res.DenseWallMS, res.DenseRangeMS, _, err = timeCalls(n, func() error {
				_, err := lp.LexMinMaxWithOptions(base, groups, lp.MinMaxOptions{
					MaxRounds: lpRounds, Workspace: dws, Solve: lp.SolveOptions{DenseBasis: true},
				})
				return err
			})
			if err != nil {
				return fail("dense", err)
			}

			// Agreement, untimed: both solvers run to the exact optimum,
			// which is unique per slot.
			sky, err := flow.LexMinMax(caps, jobs, 0)
			if err != nil {
				return fail("exact flow", err)
			}
			exact, err := lp.LexMinMaxWithOptions(base, groups, lp.MinMaxOptions{})
			if err != nil {
				return fail("exact simplex", err)
			}
			res.FlowLPCompared = true
			for gi, t := range groupSlot {
				res.FlowLPLevelDiff = max(res.FlowLPLevelDiff, math.Abs(sky.Level[t]-exact.Levels[gi]))
			}
		}

		fn := float64(n)
		res.Speedup = res.WarmFirstMS / res.FlowWallMS
		res.WarmPivots = float64(warm.Pivots) / fn
		res.ColdPivots = float64(cold.Pivots) / fn
		if total := warm.WarmStarts + warm.ColdStarts; total > 0 {
			res.WarmHitRate = float64(warm.WarmStarts) / float64(total)
		}
		res.FillIn = warm.FillIn
		res.Refactors = float64(warm.Refactors) / fn
		res.MaxEta = warm.MaxEta
		rep.Probes = append(rep.Probes, res)
	}
	return rep, nil
}

// lpLevelTol is the per-slot agreement the guard demands between the flow
// planner and the simplex (the simplex freezes levels at 1e-6).
const lpLevelTol = 1e-5

// lpGuard checks the report against the perf regression gates and
// returns the violations (empty = pass). Gates: at the 200x150 probe the
// flow planner's exact levels must equal the sparse simplex's per slot,
// the sparse LU core must beat the dense inverse on wall time and warm
// must not pivot more than cold; at the 5kx1k probe a flow replan must
// stay under one second and the simplex's warm-hit rate at or above 90%.
func lpGuard(rep lpReport) []string {
	var fails []string
	for _, p := range rep.Probes {
		switch {
		case p.Jobs == 200 && p.Slots == 150:
			if !p.FlowLPCompared || p.FlowLPLevelDiff > lpLevelTol {
				fails = append(fails, fmt.Sprintf(
					"lp-guard %dx%d: flow and sparse levels compared=%v, differ by %.3g, want <= %g", p.Jobs, p.Slots, p.FlowLPCompared, p.FlowLPLevelDiff, lpLevelTol))
			}
			if p.DenseWallMS > 0 && p.WarmWallMS >= p.DenseWallMS {
				fails = append(fails, fmt.Sprintf(
					"lp-guard %dx%d: sparse warm wall %.3fms >= dense %.3fms", p.Jobs, p.Slots, p.WarmWallMS, p.DenseWallMS))
			}
			if p.ColdPivots > 0 && p.WarmPivots > p.ColdPivots {
				fails = append(fails, fmt.Sprintf(
					"lp-guard %dx%d: warm pivots %.1f > cold pivots %.1f", p.Jobs, p.Slots, p.WarmPivots, p.ColdPivots))
			}
		case p.Jobs == 5000 && p.Slots == 1000:
			if p.FlowWallMS >= 1000 {
				fails = append(fails, fmt.Sprintf(
					"lp-guard %dx%d: flow replan %.1fms >= 1000ms", p.Jobs, p.Slots, p.FlowWallMS))
			}
			if p.WarmHitRate < 0.9 {
				fails = append(fails, fmt.Sprintf(
					"lp-guard %dx%d: warm-hit rate %.3f < 0.90", p.Jobs, p.Slots, p.WarmHitRate))
			}
		}
	}
	return fails
}
