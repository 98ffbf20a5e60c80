package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
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

// TestStreamPlansDisabledByDefault: without StreamPlans no diffs
// accumulate, and LivePlan is the planner's plan all the same.
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
	if lp := f.LivePlan(); lp.Rev == 0 || len(lp.Jobs) != 1 {
		t.Fatalf("live plan rev %d with %d jobs, want the planner's plan of job a", lp.Rev, len(lp.Jobs))
	}
}

// TestStreamedPlanCarriesAllocations: the published plan is the planner's
// allocation — every job in its slack-tightened window, never beyond its
// parallel cap, its whole demand planned — and one diff is queued for it,
// from the empty plan to its revision.
func TestStreamedPlanCarriesAllocations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StreamPlans = true
	f := New(cfg)
	cl := streamCluster()
	// Several overlapping jobs competing for the same window, which the
	// slack tightens to [0, 6) without making it short.
	jobs := []sched.JobState{
		streamJob("a", 0, 12, 4), streamJob("b", 0, 12, 4), streamJob("c", 0, 12, 4),
	}
	if _, err := f.Assign(sched.AssignContext{Now: 0, Changed: true, Jobs: jobs, Cluster: cl}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if n := f.Stats().SlackDropped; n != 0 {
		t.Fatalf("SlackDropped = %d, want the slack kept", n)
	}
	live := f.LivePlan()
	if len(live.Jobs) != len(jobs) {
		t.Fatalf("plan holds %d jobs, want %d", len(live.Jobs), len(jobs))
	}
	slackSlots := int64(cfg.Slack / cl.SlotDur)
	for _, j := range jobs {
		pj := live.Jobs[j.ID]
		want := plan.Window{Rel: int64(j.Release / cl.SlotDur), Dl: int64(j.Deadline/cl.SlotDur) - slackSlots}
		if pj.Window != want {
			t.Errorf("job %s: plan window %+v, want the slack-tightened %+v", j.ID, pj.Window, want)
		}
		var total resource.Vector
		for i, g := range pj.Alloc {
			abs := pj.Window.Rel + int64(i)
			if !g.IsZero() && (abs < want.Rel || abs >= want.Dl) {
				t.Errorf("job %s: %v planned at slot %d, outside %+v", j.ID, g, abs, want)
			}
			if !g.FitsIn(j.ParallelCap) {
				t.Errorf("job %s slot %d: %v planned, over the parallel cap %v", j.ID, abs, g, j.ParallelCap)
			}
			total = total.Add(g)
		}
		if total != j.EstRemaining {
			t.Errorf("job %s: %v planned, demand %v", j.ID, total, j.EstRemaining)
		}
	}
	diffs := f.TakePlanDiffs()
	if len(diffs) != 1 || diffs[0].BaseRev != 0 || diffs[0].NewRev != live.Rev {
		t.Fatalf("got diffs %+v, want one from rev 0 to the live rev %d", diffs, live.Rev)
	}
}

// TestStreamedDiffsChainAcrossRandomWorkloads is a randomized sweep over
// a random evolving workload that ends with every job done. At every slot
// a streaming scheduler grants exactly what a non-streaming twin on the
// same inputs grants and publishes a valid plan equal to the twin's, at
// the same revision, and the diffs it queued chain (each BaseRev is the
// previous NewRev) up to that revision. Once every job is done, the next
// replan — a batched quality one, within qualityReplanInterval slots —
// still publishes a new revision, holding no jobs.
func TestStreamedDiffsChainAcrossRandomWorkloads(t *testing.T) {
	const slots = 30
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		twin := New(cfg)
		cfg.StreamPlans = true
		f := New(cfg)
		cl := streamCluster()
		pool := make([]sched.JobState, 0, 8)
		next := 0
		lastRev := int64(0)
		emptyFrom := int64(-1) // the revision live when the job set emptied
		for now := int64(0); now <= slots+qualityReplanInterval; now++ {
			// Randomly churn the job set until every job is done.
			if rng.Intn(2) == 0 {
				rel := now + rng.Int63n(3)
				dl := rel + 2 + rng.Int63n(10)
				pool = append(pool, streamJob(fmt.Sprintf("j%d-%d", seed, next), rel, dl, 1+rng.Int63n(4)))
				next++
			}
			if len(pool) > 0 && rng.Intn(3) == 0 {
				pool = append(pool[:0:0], pool[1:]...) // oldest job completes
			}
			if now >= slots {
				pool = nil
			}
			grants, err := f.Assign(sched.AssignContext{Now: now, Changed: true, Jobs: pool, Cluster: cl})
			if err != nil {
				t.Fatalf("seed %d now %d: Assign: %v", seed, now, err)
			}
			want, err := twin.Assign(sched.AssignContext{Now: now, Changed: true, Jobs: slices.Clone(pool), Cluster: cl})
			if err != nil {
				t.Fatalf("seed %d now %d: twin Assign: %v", seed, now, err)
			}
			if !maps.Equal(grants, want) {
				t.Fatalf("seed %d now %d: streaming granted %v, its twin %v", seed, now, grants, want)
			}
			if now == slots {
				emptyFrom = lastRev
			}
			for _, d := range f.TakePlanDiffs() {
				if d.BaseRev != lastRev {
					t.Fatalf("seed %d now %d: diff chain broken: base %d after rev %d", seed, now, d.BaseRev, lastRev)
				}
				lastRev = d.NewRev
			}
			live, ref := f.LivePlan(), twin.LivePlan()
			if live.Rev != lastRev || ref.Rev != live.Rev {
				t.Fatalf("seed %d now %d: live plan at rev %d, its twin's at %d, the diffs reach %d", seed, now, live.Rev, ref.Rev, lastRev)
			}
			if err := live.Validate(); err != nil {
				t.Fatalf("seed %d now %d: live plan invalid: %v", seed, now, err)
			}
			if err := plan.Equal(live, ref); err != nil {
				t.Fatalf("seed %d now %d: streaming plan diverges from its twin's: %v", seed, now, err)
			}
		}
		if live := f.LivePlan(); len(live.Jobs) != 0 || live.Rev <= emptyFrom {
			t.Fatalf("seed %d: with no jobs left the plan holds %d at rev %d (rev %d when the last went)", seed, len(live.Jobs), live.Rev, emptyFrom)
		}
	}
}
