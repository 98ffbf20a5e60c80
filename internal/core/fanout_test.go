package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// inSequence is the reference eachKind: the kinds run one after the
// other, on the caller's goroutine, in kind order.
func inSequence(probs []*kindProblem, do func(*kindProblem)) {
	for _, p := range probs {
		do(p)
	}
}

// replanRun is what a seeded run of replans left: each Assign's grants,
// and after each the live plan and the scheduler's reports, their wall
// times zeroed.
type replanRun struct {
	grants  []map[string]resource.Vector
	plans   []*plan.Plan
	stats   []Stats
	degrade []sched.DegradationStatus
	last    []sched.ReplanStats
}

// untimed zeroes what a replan reads off the wall clock.
func untimed(r sched.ReplanStats) sched.ReplanStats {
	r.StageA, r.StageB, r.Repair = 0, 0, 0
	return r
}

// runReplans plays three slots of a seeded multi-kind instance on a fresh
// FlowTime under the current eachKind: deadline jobs demanding one kind or
// both over capacities that vary per slot, a slack that the tight
// instances drop, gate reservations folded in before the first slot, one
// kind's planner failing on one of its calls, and slots before zero, whose
// plans post-validation refuses and the greedy rung rebuilds. A new job
// arrives at the second slot, and the third runs the deferred retry or
// nothing.
func runReplans(seed int64) replanRun {
	rng := rand.New(rand.NewSource(seed))
	now := rng.Int63n(20)
	if rng.Intn(8) == 0 {
		now = -1 - rng.Int63n(3) // a plan from before slot 0 is invalid
	}
	capAt := make([]resource.Vector, 80)
	for t := range capAt {
		capAt[t] = resource.New(4+rng.Int63n(13), (4+rng.Int63n(13))*512)
	}
	cl := sched.ClusterView{SlotDur: slotDur, Horizon: now + 40, CapAt: func(slot int64) resource.Vector { return capAt[slot-now+4] }}

	var cfg Config
	if rng.Intn(2) == 0 {
		cfg.Slack = slotDur * time.Duration(1+rng.Intn(2))
	}
	f := New(cfg)
	if rng.Intn(3) == 0 {
		// One kind fails on one of its calls, or, one time in three, both
		// kinds do, each with a reason of its own to fold in kind order.
		failKind, both, failOn := resource.Kinds()[rng.Intn(resource.NumKinds)], rng.Intn(3) == 0, int32(1+rng.Intn(3))
		var calls [resource.NumKinds + 1]atomic.Int32
		f.planFault = func(k resource.Kind) error {
			if (both || k == failKind) && calls[k].Add(1) == failOn {
				return fmt.Errorf("injected %v fault", k)
			}
			return nil
		}
	}
	if rng.Intn(2) == 0 {
		rsv := make([]resource.Vector, 10)
		for i := range rsv {
			rsv[i] = resource.New(rng.Int63n(6), rng.Int63n(6)*512)
		}
		f.FoldAdHocDrain(now, rsv)
	}
	job := func(i int) sched.JobState {
		rel := max(now, 0) + rng.Int63n(8)
		dl := rel + 1 + rng.Int63n(12)
		tasks := 1 + rng.Int63n(6)
		capV := resource.New(tasks, tasks*512)
		est := capV.Scale(1 + rng.Int63n(2*(dl-rel)))
		switch rng.Intn(4) {
		case 0:
			est = est.With(resource.MemoryMB, 0)
		case 1:
			est = est.With(resource.VCores, 0)
		}
		return dlJob(fmt.Sprintf("j%02d", i), rel, dl, est, capV)
	}
	jobs := make([]sched.JobState, 2+rng.Intn(10))
	for i := range jobs {
		jobs[i] = job(i)
	}

	var run replanRun
	for slot := now; slot < now+3; slot++ {
		if slot == now+1 {
			jobs = append(jobs, job(len(jobs)))
		}
		grants, err := f.Assign(sched.AssignContext{Now: slot, Changed: slot == now, Jobs: jobs, Cluster: cl})
		if err != nil {
			panic(err)
		}
		s := f.Stats()
		s.LP.Duration, s.Last = 0, untimed(s.Last)
		run.grants = append(run.grants, grants)
		run.plans = append(run.plans, f.LivePlan())
		run.stats = append(run.stats, s)
		run.degrade = append(run.degrade, f.Degradation())
		run.last = append(run.last, untimed(f.LastReplan()))
	}
	return run
}

// TestFanOutIsInSequence holds the replan whose kinds run side by side to
// the same replan with the kinds run one after the other (inSequence), on
// 400 seeded runs of three slots that must between them drop the slack,
// route gate reservations, step a kind down to the greedy rung through the
// fault seam and rebuild a plan post-validation refused: the same grants,
// plans, stats, degradation and last replan at every slot.
func TestFanOutIsInSequence(t *testing.T) {
	var dropped, reserved, failed, rebuilt int
	for seed := int64(1); seed <= 400; seed++ {
		fanned := runReplans(seed)
		saved := eachKind
		eachKind = inSequence
		want := runReplans(seed)
		eachKind = saved

		for i := range want.plans {
			if err := plan.Equal(fanned.plans[i], want.plans[i]); err != nil {
				t.Fatalf("seed %d slot %d: the plans differ: %v", seed, i, err)
			}
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"grants", fanned.grants, want.grants},
			{"Stats()", fanned.stats, want.stats},
			{"Degradation()", fanned.degrade, want.degrade},
			{"LastReplan()", fanned.last, want.last},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s differ:\nfanned out    %+v\nin sequence   %+v", seed, c.what, c.got, c.want)
			}
		}

		end, d := want.stats[len(want.stats)-1], want.degrade[len(want.degrade)-1]
		if end.SlackDropped > 0 {
			dropped++
		}
		if end.AdHocFolds > 0 && end.Replans > 0 {
			reserved++
		}
		if d.GreedyFallbacks > d.InvalidPlans {
			failed++
		}
		if d.InvalidPlans > 0 {
			rebuilt++
		}
	}
	if dropped == 0 || reserved == 0 || failed == 0 || rebuilt == 0 {
		t.Fatalf("the runs missed a shape: %d dropped the slack, %d held reservations, %d stepped a kind down, %d rebuilt a refused plan",
			dropped, reserved, failed, rebuilt)
	}
	t.Logf("400 runs: %d dropped the slack, %d held reservations, %d stepped a kind down, %d rebuilt a refused plan", dropped, reserved, failed, rebuilt)
}
