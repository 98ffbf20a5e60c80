package oracle

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"flowtime/internal/deadline"
	"flowtime/internal/flow"
	"flowtime/internal/resource"
	"flowtime/internal/workload"
)

func TestCrossCheckKnownFractionalOptimum(t *testing.T) {
	// One job, demand 3, two slots of capacity 2: the planner spreads
	// 1.5+1.5 (max level 0.75) while the best integral split is 2+1 (max
	// level 1.0). The harness must accept the fractional optimum.
	in := Instance{Caps: []int64{2, 2}, Jobs: []Job{{Demand: 3, Rel: 0, Dl: 2, Cap: 2}}}
	res, err := SolveFlow(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	if m := MaxLevel(res.Levels); m != 0.75 {
		t.Fatalf("max level %g, want 0.75", m)
	}
	if err := CrossCheck(in, Tol); err != nil {
		t.Fatal(err)
	}
}

func TestCrossCheckKnownInfeasible(t *testing.T) {
	cases := []Instance{
		// Demand exceeds cap x window.
		{Caps: []int64{5}, Jobs: []Job{{Demand: 3, Rel: 0, Dl: 1, Cap: 2}}},
		// Positive demand confined to a zero-capacity slot.
		{Caps: []int64{0, 4}, Jobs: []Job{{Demand: 1, Rel: 0, Dl: 1, Cap: 1}}},
	}
	for i, in := range cases {
		res, err := SolveFlow(in)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.Feasible {
			t.Fatalf("case %d: expected infeasible", i)
		}
		if err := CrossCheck(in, Tol); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := CheckFlow(in); err != nil {
			t.Fatalf("case %d: infeasibility not certified: %v", i, err)
		}
	}
}

func TestCrossCheckRandomSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		in := GenInstance(rng)
		if err := CrossCheck(in, Tol); err != nil {
			t.Fatalf("instance %d: %v\ninstance: %+v", i, err, in)
		}
	}
}

func TestCheckSolutionLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	feasible := 0
	for i := 0; i < 60; i++ {
		in := GenLargeInstance(rng)
		res, err := SolveFlow(in)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !res.Feasible {
			continue
		}
		feasible++
		if err := CheckSolution(in, 0, res.Sky); err != nil {
			t.Fatalf("instance %d: %v\ninstance: %+v", i, err, in)
		}
	}
	if feasible == 0 {
		t.Fatal("generator produced no feasible large instances")
	}
}

// TestMutationSmokeTest is the harness's self-test: deliberately corrupt
// the planner's certified answer in the ways a planner bug would (shift
// mass out of a window, onto a dead slot or past a cap, break a demand
// row, nudge a level by one unit, drop an arc from a cut) and require
// the exact checker to reject every mutant. DESIGN.md §8.1 documents this
// as the evidence that the checker has teeth.
func TestMutationSmokeTest(t *testing.T) {
	in := Instance{
		Caps: []int64{3, 2, 4, 0},
		Jobs: []Job{
			{Demand: 4, Rel: 0, Dl: 2, Cap: 3},
			{Demand: 5, Rel: 0, Dl: 4, Cap: 2},
		},
	}
	solve := func() *flow.Skyline {
		res, err := SolveFlow(in)
		if err != nil || !res.Feasible {
			t.Fatalf("solve: %v feasible=%v", err, res != nil && res.Feasible)
		}
		if err := CheckSolution(in, 0, res.Sky); err != nil {
			t.Fatalf("pristine solution rejected: %v", err)
		}
		return res.Sky
	}
	// Slots 0 and 1 freeze at 7/5 with both jobs; job 1's arc to slot 2
	// leaves the cut, full at its cap.
	if lv := solve().Levels; len(lv) != 1 || lv[0].Num != 7 || lv[0].Den != 5 {
		t.Fatalf("levels %+v, want one at 7/5", lv)
	}

	mutants := []struct {
		name   string
		mutate func(*flow.Skyline)
		want   string
	}{
		{"allocation outside window", func(s *flow.Skyline) { s.Alloc[0] = append(s.Alloc[0], 0) }, "row has"},
		{"demand row broken", func(s *flow.Skyline) { s.Alloc[1][2]-- }, "demand"},
		{"cap exceeded", func(s *flow.Skyline) {
			s.Alloc[0][0] += s.Alloc[0][1]
			s.Alloc[0][1] = 0
		}, "cap"},
		{"negative allocation", func(s *flow.Skyline) {
			s.Alloc[1][0] -= 100
			s.Alloc[1][1] += 100
		}, "outside"},
		{"allocation on a dead slot", func(s *flow.Skyline) {
			s.Alloc[1][2]--
			s.Alloc[1][3]++
		}, "zero-capacity"},
		{"level nudged by one unit", func(s *flow.Skyline) { s.Levels[0].Num++ }, "wants"},
		{"cut missing the arc job 1 -> slot 2", func(s *flow.Skyline) {
			s.Levels[0].Slots = append(s.Levels[0].Slots, 2)
		}, "slot 2"},
	}
	for _, m := range mutants {
		sky := solve()
		m.mutate(sky)
		err := CheckSolution(in, 0, sky)
		if err == nil {
			t.Fatalf("mutant %q not caught", m.name)
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Fatalf("mutant %q: error %q does not mention %q", m.name, err, m.want)
		}
	}

	// A feasible but sub-optimal solver must fail its own cut equation:
	// fake one that piles everything as early as possible and claims its
	// peak as the top level, proved by the jobs on the peak slot.
	load := make([]int64, len(in.Caps))
	greedy := &flow.Skyline{Alloc: make([][]int64, len(in.Jobs)), Den: make([]int64, len(in.Jobs))}
	for ji, job := range in.Jobs {
		row := make([]int64, job.Dl-job.Rel)
		left := job.Demand
		for s := job.Rel; s < job.Dl && left > 0; s++ {
			if in.Caps[s] > 0 {
				x := min(left, job.Cap)
				row[s-job.Rel], load[s], left = x, load[s]+x, left-x
			}
		}
		greedy.Alloc[ji], greedy.Den[ji] = row, 1
	}
	peak := flow.Level{Num: load[0], Den: in.Caps[0], Slots: []int{0}, Jobs: []int{0, 1}}
	if peak.Num*5 <= 7*peak.Den {
		t.Fatalf("test broken: greedy peak %d/%d not worse than the optimum 7/5", peak.Num, peak.Den)
	}
	greedy.Levels = []flow.Level{peak}
	if err := CheckSolution(in, 1, greedy); err == nil || !strings.Contains(err.Error(), "cut capacity") {
		t.Fatalf("greedy solver: err = %v, want its cut equation to fail", err)
	}
}

func TestMetamorphicRelationsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 120; i++ {
		in := GenInstance(rng)
		if err := CheckScaleInvariance(in, 1+int64(rng.Intn(4)), Tol); err != nil {
			t.Fatalf("instance %d: %v\ninstance: %+v", i, err, in)
		}
		if err := CheckPermutationInvariance(in, rng, Tol); err != nil {
			t.Fatalf("instance %d: %v\ninstance: %+v", i, err, in)
		}
		t0 := rng.Int63n(int64(len(in.Caps)))
		if err := CheckSplitSlot(in, t0, Tol); err != nil {
			t.Fatalf("instance %d: %v\ninstance: %+v", i, err, in)
		}
	}
}

func TestDecompositionOracleRandomWorkflows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	opts := deadline.Options{Slot: 10 * time.Second, ClusterCap: resource.New(40, 80_000)}
	byMethod := map[deadline.Method]int{}
	for i := 0; i < 150; i++ {
		sc, err := GenScenario(rng)
		if err != nil {
			t.Fatal(err)
		}
		for wi, wf := range sc.Workflows {
			res, err := deadline.Decompose(wf, opts)
			if err != nil {
				continue // undecomposable (window < 1 slot); sim admits best-effort
			}
			byMethod[res.Method]++
			if err := CheckDecomposition(wf, opts, res); err != nil {
				t.Fatalf("scenario %d wf %d (%s regime): %v", i, wi, sc.Regimes[wi], err)
			}
		}
	}
	if byMethod[deadline.ResourceDemand] == 0 || byMethod[deadline.CriticalPath] == 0 {
		t.Fatalf("generator did not exercise both methods: %v", byMethod)
	}
}

func TestDecompositionOracleForcedCriticalPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	opts := deadline.Options{
		Slot: 10 * time.Second, ClusterCap: resource.New(40, 80_000), ForceCriticalPath: true,
	}
	checked := 0
	for i := 0; i < 30; i++ {
		sc, err := GenScenario(rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, wf := range sc.Workflows {
			res, err := deadline.Decompose(wf, opts)
			if err != nil {
				continue
			}
			if res.Method != deadline.CriticalPath {
				t.Fatalf("forced critical path, got %v", res.Method)
			}
			if err := CheckDecomposition(wf, opts, res); err != nil {
				t.Fatalf("scenario %d: %v", i, err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no workflow decomposed")
	}
}

func TestShrinkMinimizes(t *testing.T) {
	in := Instance{
		Caps: []int64{3, 0, 2, 4},
		Jobs: []Job{
			{Demand: 6, Rel: 0, Dl: 4, Cap: 2},
			{Demand: 4, Rel: 1, Dl: 3, Cap: 3},
			{Demand: 2, Rel: 2, Dl: 4, Cap: 1},
		},
	}
	// Failure predicate: total demand of jobs windowed over slot 2 is at
	// least 4 (a stand-in for "oracle disagrees").
	fails := func(c Instance) bool {
		var d int64
		for _, j := range c.Jobs {
			if j.Rel <= 2 && j.Dl > 2 {
				d += j.Demand
			}
		}
		return len(c.Caps) > 2 && d >= 4
	}
	if !fails(in) {
		t.Fatal("test broken: seed instance does not fail")
	}
	out := Shrink(in, fails)
	if !fails(out) {
		t.Fatal("shrink returned a passing instance")
	}
	var total int64
	for _, j := range out.Jobs {
		total += j.Demand
	}
	if total > 4 || len(out.Caps) > 3 {
		t.Fatalf("shrink left a non-minimal instance: %+v", out)
	}
}

// TestShrinkScenarioMinimizes sanity-checks the scenario reducer on a
// synthetic failure predicate: "fails whenever any workflow remains"
// must shrink to exactly one workflow (dropping the last one makes the
// predicate pass, so it must be kept) and a minimal horizon.
func TestShrinkScenarioMinimizes(t *testing.T) {
	sc, err := GenScenario(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("GenScenario: %v", err)
	}
	if len(sc.Workflows) < 2 {
		t.Skipf("seed drew %d workflows, need >= 2", len(sc.Workflows))
	}
	min := ShrinkScenario(sc, func(c *Scenario) bool { return len(c.Workflows) >= 1 })
	if len(min.Workflows) != 1 || len(min.Regimes) != 1 {
		t.Fatalf("shrunk to %d workflows / %d regimes, want 1 / 1", len(min.Workflows), len(min.Regimes))
	}
	if len(min.AdHoc) != 0 {
		t.Fatalf("shrunk scenario kept %d ad-hoc jobs, want 0", len(min.AdHoc))
	}
	if min.Horizon >= sc.Horizon {
		t.Fatalf("shrink never reduced the horizon: %d -> %d", sc.Horizon, min.Horizon)
	}
}

func TestGenScenarioDeterministic(t *testing.T) {
	a, err := GenScenario(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenScenario(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Workflows) != len(b.Workflows) || len(a.AdHoc) != len(b.AdHoc) {
		t.Fatalf("scenario shape differs: %d/%d wf, %d/%d adhoc",
			len(a.Workflows), len(b.Workflows), len(a.AdHoc), len(b.AdHoc))
	}
	for i := range a.Workflows {
		if a.Workflows[i].Deadline != b.Workflows[i].Deadline ||
			a.Workflows[i].NumJobs() != b.Workflows[i].NumJobs() {
			t.Fatalf("workflow %d differs between identical seeds", i)
		}
	}
	// Regimes span the space over a modest seed sweep.
	seen := map[DeadlineRegime]bool{}
	shapes := map[workload.Shape]bool{}
	_ = shapes
	for s := int64(0); s < 40; s++ {
		sc, err := GenScenario(rand.New(rand.NewSource(s)))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sc.Regimes {
			seen[r] = true
		}
	}
	for _, r := range []DeadlineRegime{RegimeTight, RegimeLoose, RegimeInfeasible} {
		if !seen[r] {
			t.Fatalf("regime %v never generated", r)
		}
	}
}
