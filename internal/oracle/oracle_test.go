package oracle

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"flowtime/internal/deadline"
	"flowtime/internal/lp"
	"flowtime/internal/resource"
	"flowtime/internal/workload"
)

// exactLP is the reference simplex run to the exact optimum, as a Solver.
func exactLP(in Instance) (*LPResult, error) { return SolveLP(in, 0) }

func TestCrossCheckKnownFractionalOptimum(t *testing.T) {
	// One job, demand 3, two slots of capacity 2: the LP spreads 1.5+1.5
	// (max level 0.75) while the best integral split is 2+1 (max level
	// 1.0). The harness must accept the fractional optimum.
	in := Instance{Caps: []int64{2, 2}, Jobs: []Job{{Demand: 3, Rel: 0, Dl: 2, Cap: 2}}}
	res, err := SolveLP(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	if m := lp.MaxLevel(res.Levels); math.Abs(m-0.75) > Tol {
		t.Fatalf("max level %g, want 0.75", m)
	}
	if err := CrossCheck(exactLP, in, Tol); err != nil {
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
		res, err := SolveLP(in, 0)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.Feasible {
			t.Fatalf("case %d: expected infeasible", i)
		}
		if err := CrossCheck(exactLP, in, Tol); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestCrossCheckRandomSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		in := GenInstance(rng)
		if err := CrossCheck(exactLP, in, Tol); err != nil {
			t.Fatalf("instance %d: %v\ninstance: %+v", i, err, in)
		}
	}
}

func TestCheckSolutionLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	feasible := 0
	for i := 0; i < 60; i++ {
		in := GenLargeInstance(rng)
		res, err := SolveLP(in, 0)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !res.Feasible {
			continue
		}
		feasible++
		if err := CheckSolution(in, res, Tol); err != nil {
			t.Fatalf("instance %d: %v\ninstance: %+v", i, err, in)
		}
	}
	if feasible == 0 {
		t.Fatal("generator produced no feasible large instances")
	}
}

// TestMutationSmokeTest is the harness's self-test: deliberately corrupt
// a correct solver answer in the ways a solver bug would (shift mass out
// of a window, break a demand row, misreport a level) and require the
// oracle to reject every mutant. DESIGN.md §11 documents this as the
// evidence that the oracle has teeth.
func TestMutationSmokeTest(t *testing.T) {
	in := Instance{
		Caps: []int64{3, 2, 4},
		Jobs: []Job{
			{Demand: 4, Rel: 0, Dl: 2, Cap: 3},
			{Demand: 5, Rel: 0, Dl: 3, Cap: 2},
		},
	}
	solve := func() *LPResult {
		res, err := SolveLP(in, 0)
		if err != nil || !res.Feasible {
			t.Fatalf("solve: %v feasible=%v", err, res != nil && res.Feasible)
		}
		if err := CheckSolution(in, res, Tol); err != nil {
			t.Fatalf("pristine solution rejected: %v", err)
		}
		return res
	}

	mutants := []struct {
		name   string
		mutate func(*LPResult)
		want   string
	}{
		{"level misreported", func(r *LPResult) { r.Levels[0] += 0.25 }, "recomputed"},
		{"allocation outside window", func(r *LPResult) {
			r.Alloc[0][2] += 1 // job 0's window is [0,2)
			r.Alloc[0][0] -= 1
		}, "outside window"},
		{"demand row broken", func(r *LPResult) { r.Alloc[1][1] += 0.5 }, ""},
		{"cap exceeded", func(r *LPResult) {
			r.Alloc[0][0] += 2.5
			r.Alloc[0][1] -= 2.5
		}, ""},
		{"negative allocation", func(r *LPResult) {
			r.Alloc[1][0] -= 10
			r.Alloc[1][1] += 10
		}, ""},
	}
	for _, m := range mutants {
		res := solve()
		m.mutate(res)
		err := CheckSolution(in, res, Tol)
		if err == nil {
			t.Fatalf("mutant %q not caught", m.name)
		}
		if m.want != "" && !strings.Contains(err.Error(), m.want) {
			t.Fatalf("mutant %q: error %q does not mention %q", m.name, err, m.want)
		}
	}

	// A sub-optimal (but interior-valid) solver must be caught by the
	// optimality cross-checks: fake a solver that piles everything as
	// early as possible instead of flattening.
	greedy := func() *LPResult {
		res := &LPResult{Feasible: true, GroupSlot: in.GroupSlots()}
		res.Alloc = make([][]float64, len(in.Jobs))
		load := make([]float64, len(in.Caps))
		for ji, job := range in.Jobs {
			res.Alloc[ji] = make([]float64, len(in.Caps))
			left := float64(job.Demand)
			for s := job.Rel; s < job.Dl && left > 0; s++ {
				x := math.Min(left, float64(job.Cap))
				res.Alloc[ji][s] = x
				load[s] += x
				left -= x
			}
		}
		for _, s := range res.GroupSlot {
			res.Levels = append(res.Levels, load[s]/float64(in.Caps[s]))
		}
		return res
	}
	gr := greedy()
	if err := CheckSolution(in, gr, Tol); err != nil {
		t.Fatalf("greedy mutant should be interior-valid, got %v", err)
	}
	theta, _, err := MinMaxLevelByCuts(in)
	if err != nil {
		t.Fatal(err)
	}
	if m := lp.MaxLevel(gr.Levels); m <= theta+Tol {
		t.Fatalf("test broken: greedy max level %g not worse than optimum %g", m, theta)
	}
}

func TestMetamorphicRelationsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 120; i++ {
		in := GenInstance(rng)
		if err := CheckScaleInvariance(exactLP, in, 1+int64(rng.Intn(4)), Tol); err != nil {
			t.Fatalf("instance %d: %v\ninstance: %+v", i, err, in)
		}
		if err := CheckPermutationInvariance(exactLP, in, rng, Tol); err != nil {
			t.Fatalf("instance %d: %v\ninstance: %+v", i, err, in)
		}
		t0 := rng.Int63n(int64(len(in.Caps)))
		if err := CheckSplitSlot(exactLP, in, t0, Tol); err != nil {
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
