package oracle

import (
	"math/rand"
	"testing"
)

// TestFlowCertified is the gate that licenses planning by flow: over
// 600 seeded instances (every third far beyond brute-force reach) the
// planner's skylines and its stage A routing pass the exact checker,
// infeasible verdicts included (CheckFlow); on the tiny instances the
// planner also faces the brute-force and min-cut oracles and the
// metamorphic relations.
func TestFlowCertified(t *testing.T) {
	const cases = 600
	rng := rand.New(rand.NewSource(15))
	feasible := 0
	for i := 0; i < cases; i++ {
		small := i%3 != 0
		in := GenLargeInstance(rng)
		if small {
			in = GenInstance(rng)
		}
		if err := CheckFlow(in); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v", i, err, in)
		}
		if res, err := SolveFlow(in); err == nil && res.Feasible {
			feasible++
		}
		if !small {
			continue
		}
		if err := CrossCheck(in, Tol); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v", i, err, in)
		}
		if err := CheckScaleInvariance(in, 1+int64(rng.Intn(4)), Tol); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v", i, err, in)
		}
		if err := CheckPermutationInvariance(in, rng, Tol); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v", i, err, in)
		}
		if err := CheckSplitSlot(in, rng.Int63n(int64(len(in.Caps))), Tol); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v", i, err, in)
		}
	}
	if feasible < cases/5 {
		t.Fatalf("only %d of %d instances feasible: the sweep certifies too few skylines", feasible, cases)
	}
}

// TestFlowLPAgreePerSlotOnKnownOptimum pins the claim CheckSolution
// rests on — the lexicographic optimum is unique per slot, not just as a
// sorted vector — on an instance whose answer is known by hand: the flow
// planner must hit it slot by slot, pass the exact checker, and match
// brute force (the optimum here is integral, so brute force reaches it).
func TestFlowLPAgreePerSlotOnKnownOptimum(t *testing.T) {
	in := Instance{
		Caps: []int64{4, 4, 4},
		Jobs: []Job{{Demand: 4, Rel: 0, Dl: 1, Cap: 4}, {Demand: 4, Rel: 0, Dl: 3, Cap: 4}},
	}
	if err := CheckFlow(in); err != nil {
		t.Fatalf("pristine instance rejected: %v", err)
	}
	got, err := SolveFlow(in)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := BruteForce(in)
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 is pinned to slot 0; job 1 flattens over the other two.
	want := []float64{1, 0.5, 0.5}
	for gi := range want {
		if got.Levels[gi] != want[gi] || bf.BestSkyline[gi] != want[gi] {
			t.Fatalf("group %d: flow %g, brute force %g, want %g", gi, got.Levels[gi], bf.BestSkyline[gi], want[gi])
		}
	}
}
