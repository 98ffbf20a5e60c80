package oracle

import (
	"math/rand"
	"testing"
)

// TestFlowLPEquivalence is the differential gate that licenses planning
// by flow: over 600 seeded instances (every third far beyond brute-force
// reach) the flow planner and the exact simplex agree on feasibility and
// on every group's level, level-capped flows keep their capped levels
// exact (CheckFlowLP), and on the tiny instances the flow planner also
// faces the brute-force and min-cut oracles and the metamorphic
// relations on its own.
func TestFlowLPEquivalence(t *testing.T) {
	const cases = 600
	rng := rand.New(rand.NewSource(15))
	feasible := 0
	for i := 0; i < cases; i++ {
		small := i%3 != 0
		in := GenLargeInstance(rng)
		if small {
			in = GenInstance(rng)
		}
		if err := CheckFlowLP(in, Tol); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v", i, err, in)
		}
		if res, err := SolveFlow(in); err == nil && res.Feasible {
			feasible++
		}
		if !small {
			continue
		}
		if err := CrossCheck(SolveFlow, in, Tol); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v", i, err, in)
		}
		if err := CheckScaleInvariance(SolveFlow, in, 1+int64(rng.Intn(4)), Tol); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v", i, err, in)
		}
		if err := CheckPermutationInvariance(SolveFlow, in, rng, Tol); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v", i, err, in)
		}
		if err := CheckSplitSlot(SolveFlow, in, rng.Int63n(int64(len(in.Caps))), Tol); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v", i, err, in)
		}
	}
	if feasible < cases/5 {
		t.Fatalf("only %d of %d instances feasible: the sweep compares too few skylines", feasible, cases)
	}
}

// TestFlowLPAgreePerSlotOnKnownOptimum pins the claim CheckFlowLP rests
// on — the optimum is unique per slot, not just as a sorted vector — on
// an instance whose answer is known by hand.
func TestFlowLPAgreePerSlotOnKnownOptimum(t *testing.T) {
	in := Instance{
		Caps: []int64{4, 4, 4},
		Jobs: []Job{{Demand: 4, Rel: 0, Dl: 1, Cap: 4}, {Demand: 4, Rel: 0, Dl: 3, Cap: 4}},
	}
	if err := CheckFlowLP(in, Tol); err != nil {
		t.Fatalf("pristine instance rejected: %v", err)
	}
	ref, err := SolveLP(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveFlow(in)
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 is pinned to slot 0; job 1 flattens over the other two.
	for gi, want := range []float64{1, 0.5, 0.5} {
		if got.Levels[gi] != want || ref.Levels[gi] < want-Tol || ref.Levels[gi] > want+Tol {
			t.Fatalf("group %d: flow %g, LP %g, want %g", gi, got.Levels[gi], ref.Levels[gi], want)
		}
	}
}

// TestFlowLPAgreeAtProbeScale holds the flow planner to the reference
// simplex well past the sizes the seeded sweeps reach (12 jobs x 40
// slots): on the planner probe's 100-job x 100-slot instance, per slot,
// with the level-capped flows checked as CheckFlowLP checks them.
func TestFlowLPAgreeAtProbeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 100x100 LP to the exact optimum")
	}
	if err := CheckFlowLP(ProbeInstance(100, 100, 0), Tol); err != nil {
		t.Fatal(err)
	}
}
