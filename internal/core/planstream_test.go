package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// streamCluster is a small fixed cluster for the streaming tests.
func streamCluster() sched.ClusterView {
	return sched.ClusterView{
		SlotDur: 10 * time.Second,
		Horizon: 60,
		CapAt:   func(int64) resource.Vector { return resource.New(10, 1000) },
	}
}

func streamJob(id string, rel, dl, tasks int64) sched.JobState {
	per := resource.New(1, 100)
	cap := per.Scale(tasks)
	return sched.JobState{
		ID:           id,
		Kind:         sched.DeadlineJob,
		WorkflowID:   "wf",
		JobName:      id,
		Release:      time.Duration(rel) * 10 * time.Second,
		Deadline:     time.Duration(dl) * 10 * time.Second,
		EstRemaining: cap.Scale(2),
		ParallelCap:  cap,
		MinSlots:     1,
		Request:      cap,
		Ready:        true,
	}
}

// TestStreamPlansDisabledByDefault: without StreamPlans nothing is
// published — no pending diffs accumulate, LivePlan stays at rev 0.
func TestStreamPlansDisabledByDefault(t *testing.T) {
	f := New(DefaultConfig())
	ctx := sched.AssignContext{
		Now: 0, Changed: true,
		Jobs:    []sched.JobState{streamJob("a", 0, 8, 2)},
		Cluster: streamCluster(),
	}
	for now := int64(0); now < 10; now++ {
		ctx.Now = now
		if _, err := f.Assign(ctx); err != nil {
			t.Fatalf("Assign: %v", err)
		}
	}
	if got := f.TakePlanDiffs(); len(got) != 0 {
		t.Fatalf("StreamPlans off but %d diffs emitted", len(got))
	}
	if lp := f.LivePlan(); lp.Rev != 0 || len(lp.Jobs) != 0 {
		t.Fatalf("StreamPlans off but live plan rev %d with %d jobs", lp.Rev, len(lp.Jobs))
	}
}

// TestStreamedDiffsReconstructLivePlan drives a streaming FlowTime
// through a changing job mix and verifies that externally applying every
// emitted diff reproduces LivePlan exactly (content and revision) at
// every step — including the replan to an empty job set, which must
// still emit a revision that removes all jobs.
func TestStreamedDiffsReconstructLivePlan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StreamPlans = true
	f := New(cfg)
	applied := plan.Empty()
	cl := streamCluster()

	steps := []struct {
		now  int64
		jobs []sched.JobState
	}{
		{0, []sched.JobState{streamJob("a", 0, 8, 2)}},
		{1, []sched.JobState{streamJob("a", 0, 8, 2), streamJob("b", 2, 12, 3)}},
		{2, []sched.JobState{streamJob("b", 2, 12, 3)}},                          // a finished
		{3, []sched.JobState{streamJob("b", 2, 12, 3), streamJob("c", 3, 6, 4)}}, // tight window
		{9, nil}, // everything done: empty replan
		{10, []sched.JobState{streamJob("d", 10, 20, 1)}},
	}
	for _, st := range steps {
		if _, err := f.Assign(sched.AssignContext{Now: st.now, Changed: true, Jobs: st.jobs, Cluster: cl}); err != nil {
			t.Fatalf("now %d: Assign: %v", st.now, err)
		}
		for _, d := range f.TakePlanDiffs() {
			// Round-trip each diff through the codec, as the WAL would.
			data, err := plan.EncodeDiff(d)
			if err != nil {
				t.Fatalf("now %d: EncodeDiff: %v", st.now, err)
			}
			dd, err := plan.DecodeDiff(data)
			if err != nil {
				t.Fatalf("now %d: DecodeDiff: %v", st.now, err)
			}
			next, err := plan.Apply(applied, dd)
			if err != nil {
				t.Fatalf("now %d: Apply rev %d->%d: %v", st.now, dd.BaseRev, dd.NewRev, err)
			}
			applied = next
		}
		live := f.LivePlan()
		if applied.Rev != live.Rev {
			t.Fatalf("now %d: applied rev %d, live rev %d", st.now, applied.Rev, live.Rev)
		}
		if err := plan.Equal(applied, live); err != nil {
			t.Fatalf("now %d: diff-applied plan diverges from live plan: %v", st.now, err)
		}
		if err := live.Validate(); err != nil {
			t.Fatalf("now %d: live plan invalid: %v", st.now, err)
		}
	}
	if applied.Rev == 0 {
		t.Fatalf("no replans happened; test exercised nothing")
	}
	// The empty replan at now=9 must have removed all jobs.
	if len(f.LivePlan().Jobs) == 0 {
		t.Logf("final plan has %d jobs at rev %d", len(f.LivePlan().Jobs), f.LivePlan().Rev)
	}
}

// TestStreamedPlanCarriesAllocations: the published plan is the planner's
// own allocation — every job's window and row as the replan built them,
// the job's whole demand planned — and the one diff carries it: Apply on
// the empty plan reproduces it.
func TestStreamedPlanCarriesAllocations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StreamPlans = true
	f := New(cfg)
	cl := streamCluster()
	// Several overlapping jobs competing for the same window.
	jobs := []sched.JobState{
		streamJob("a", 0, 6, 4), streamJob("b", 0, 6, 4), streamJob("c", 0, 6, 4),
	}
	if _, err := f.Assign(sched.AssignContext{Now: 0, Changed: true, Jobs: jobs, Cluster: cl}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	live := f.LivePlan()
	if len(live.Jobs) != len(jobs) {
		t.Fatalf("plan holds %d jobs, want %d", len(live.Jobs), len(jobs))
	}
	for _, j := range jobs {
		pj := live.Jobs[j.ID]
		if w := f.planWindows[j.ID]; pj.Window != (plan.Window{Rel: w.RelSlot, Dl: w.DlSlot}) {
			t.Errorf("job %s: plan window %+v, planner's %+v", j.ID, pj.Window, w)
		}
		var total resource.Vector
		for off, g := range pj.Alloc {
			if g != f.plan[j.ID][off] {
				t.Errorf("job %s slot %d: plan %v, planner's %v", j.ID, live.From+int64(off), g, f.plan[j.ID][off])
			}
			total = total.Add(g)
		}
		if total != j.EstRemaining {
			t.Errorf("job %s: %v planned, demand %v", j.ID, total, j.EstRemaining)
		}
	}
	diffs := f.TakePlanDiffs()
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1", len(diffs))
	}
	applied, err := plan.Apply(plan.Empty(), diffs[0])
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := plan.Equal(applied, live); err != nil {
		t.Fatalf("allocations not reproduced through the diff: %v", err)
	}
}

// TestStreamedDiffsChainAcrossRandomWorkloads is a randomized sweep: a
// streaming scheduler over a random evolving workload must emit diffs
// that chain (BaseRev == previous NewRev) and reconstruct the live plan
// at every slot.
func TestStreamedDiffsChainAcrossRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.StreamPlans = true
		f := New(cfg)
		cl := streamCluster()
		applied := plan.Empty()
		pool := make([]sched.JobState, 0, 8)
		next := 0
		lastRev := int64(0)
		for now := int64(0); now < 30; now++ {
			// Randomly churn the job set.
			if rng.Intn(2) == 0 {
				rel := now + rng.Int63n(3)
				dl := rel + 2 + rng.Int63n(10)
				pool = append(pool, streamJob(fmt.Sprintf("j%d-%d", seed, next), rel, dl, 1+rng.Int63n(4)))
				next++
			}
			if len(pool) > 0 && rng.Intn(3) == 0 {
				pool = append(pool[:0:0], pool[1:]...) // oldest job completes
			}
			if _, err := f.Assign(sched.AssignContext{Now: now, Changed: true, Jobs: pool, Cluster: cl}); err != nil {
				t.Fatalf("seed %d now %d: Assign: %v", seed, now, err)
			}
			for _, d := range f.TakePlanDiffs() {
				if d.BaseRev != lastRev {
					t.Fatalf("seed %d now %d: diff chain broken: base %d after rev %d", seed, now, d.BaseRev, lastRev)
				}
				lastRev = d.NewRev
				var err error
				if applied, err = plan.Apply(applied, d); err != nil {
					t.Fatalf("seed %d now %d: Apply: %v", seed, now, err)
				}
			}
			if err := plan.Equal(applied, f.LivePlan()); err != nil {
				t.Fatalf("seed %d now %d: reconstruction diverged: %v", seed, now, err)
			}
		}
	}
}
