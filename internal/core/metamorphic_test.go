package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/sim"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// randomAssignContext draws a random slot-0 scheduling decision: a mix
// of deadline jobs (with decomposed windows of varying tightness) and
// ad-hoc jobs, on a 10-vcore cluster.
func randomAssignContext(rng *rand.Rand) sched.AssignContext {
	capVec := resource.New(10, 1000)
	horizon := int64(40)
	n := 1 + rng.Intn(6)
	jobs := make([]sched.JobState, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			jobs = append(jobs, sched.JobState{
				ID:      fmt.Sprintf("ah-%d", i),
				Kind:    sched.AdHocJob,
				Ready:   true,
				Request: resource.New(1+rng.Int63n(4), 100*(1+rng.Int63n(4))),
			})
			continue
		}
		rel := rng.Int63n(horizon - 1)
		dl := rel + 1 + rng.Int63n(horizon-rel-1) + 1
		tasks := 1 + rng.Int63n(5)
		per := resource.New(1, 100)
		cap := per.Scale(tasks)
		est := cap.Scale(1 + rng.Int63n(4)) // 1-4 slots of full-parallel work
		jobs = append(jobs, sched.JobState{
			ID:           fmt.Sprintf("dl-%d", i),
			Kind:         sched.DeadlineJob,
			WorkflowID:   "wf",
			JobName:      fmt.Sprintf("j%d", i),
			Release:      time.Duration(rel) * 10 * time.Second,
			Deadline:     time.Duration(dl) * 10 * time.Second,
			EstRemaining: est,
			ParallelCap:  cap,
			MinSlots:     1,
			Request:      cap.Min(est),
			Ready:        rng.Intn(5) != 0,
		})
	}
	return sched.AssignContext{
		Now:     0,
		Changed: true,
		Jobs:    jobs,
		Cluster: sched.ClusterView{
			SlotDur: 10 * time.Second,
			Horizon: horizon,
			CapAt:   func(int64) resource.Vector { return capVec },
		},
	}
}

// checkAssign holds one Assign's grants to the relation that licenses the
// idle pass: work conservation as any driver can check it
// (sim.InvariantChecker.CheckWorkConserving — no capacity idles beside a
// ready request; a grant before a job's release only where no ad-hoc job
// is short) and, from the inside, checkClaims.
func checkAssign(f *FlowTime, ctx sched.AssignContext, grants map[string]resource.Vector) error {
	capacity := ctx.Cluster.CapAt(ctx.Now)
	if err := sim.NewInvariantChecker().CheckWorkConserving(ctx.Now, capacity, sim.Observe(ctx, grants)); err != nil {
		return err
	}
	return checkClaims(f, ctx, grants)
}

// checkClaims is the part of the relation only the scheduler's books show:
// the plan is a floor (a ready job gets its slice, up to its request) and
// the only claim ahead of ad-hoc work — a grant above the slice, to a job
// that is neither overdue nor owed revision backlog, appears only in a
// kind where every ready ad-hoc job got its whole request.
func checkClaims(f *FlowTime, ctx sched.AssignContext, grants map[string]resource.Vector) error {
	var short [resource.NumKinds]string // a ready ad-hoc job short of its request, per kind
	for _, j := range ctx.Jobs {
		for i, k := range resource.Kinds() {
			if j.Kind == sched.AdHocJob && j.Ready && grants[j.ID].Get(k) < j.Request.Get(k) {
				short[i] = j.ID
			}
		}
	}
	for _, j := range ctx.Jobs {
		if j.Kind != sched.DeadlineJob || !j.Ready {
			continue
		}
		var slice resource.Vector
		if slots, off := f.plan[j.ID], ctx.Now-f.planFrom; off >= 0 && off < int64(len(slots)) {
			slice = slots[off]
		}
		floor := slice.Min(j.Request)
		if !floor.FitsIn(grants[j.ID]) {
			return fmt.Errorf("slot %d: %s granted %v under its plan slice %v (request %v)", ctx.Now, j.ID, grants[j.ID], slice, j.Request)
		}
		overdue := int64(j.Deadline/ctx.Cluster.SlotDur) <= ctx.Now
		owed := int64(j.Release/ctx.Cluster.SlotDur) <= ctx.Now &&
			!j.EstRemaining.SubClamped(floor).FitsIn(f.planRemaining[j.ID].Add(f.deferred[j.ID]))
		if overdue || owed {
			continue
		}
		for i, k := range resource.Kinds() {
			if grants[j.ID].Get(k) > floor.Get(k) && short[i] != "" {
				return fmt.Errorf("slot %d: %s granted %v above its plan slice %v while ad-hoc job %s is short of %v",
					ctx.Now, j.ID, grants[j.ID], slice, short[i], k)
			}
		}
	}
	return nil
}

// TestQuickAssignSafety is a testing/quick driver over the production
// planner: for random job mixes, the grants FlowTime emits must respect
// cluster capacity, per-job parallelism and readiness — without relying
// on the simulator's defensive clamping — and be work-conserving
// (checkAssign): a decomposed release is a planning window, so a ready job
// may run before it, but only on capacity no ad-hoc job asked for, and no
// capacity may idle beside a ready job's unmet request.
func TestQuickAssignSafety(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := randomAssignContext(rng)
		f := New(DefaultConfig())
		grants, err := f.Assign(ctx)
		if err != nil {
			t.Logf("seed %d: Assign: %v", seed, err)
			return false
		}
		if err := checkAssign(f, ctx, grants); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		var used resource.Vector
		byID := make(map[string]sched.JobState, len(ctx.Jobs))
		for _, j := range ctx.Jobs {
			byID[j.ID] = j
		}
		for id, g := range grants {
			j, ok := byID[id]
			if !ok {
				t.Logf("seed %d: grant to unknown job %s", seed, id)
				return false
			}
			if g.AnyNegative() {
				t.Logf("seed %d: negative grant %v to %s", seed, g, id)
				return false
			}
			if j.Kind == sched.DeadlineJob && !j.BestEffort && !g.IsZero() &&
				!g.FitsIn(j.ParallelCap) {
				t.Logf("seed %d: grant %v to %s exceeds parallel cap %v", seed, g, id, j.ParallelCap)
				return false
			}
			if !j.Ready && !g.IsZero() {
				t.Logf("seed %d: grant %v to blocked job %s", seed, g, id)
				return false
			}
			if !g.FitsIn(j.Request) {
				t.Logf("seed %d: grant %v to %s exceeds its request %v", seed, g, id, j.Request)
				return false
			}
			used = used.Add(g)
		}
		if !used.FitsIn(ctx.Cluster.CapAt(ctx.Now)) {
			t.Logf("seed %d: total grants %v exceed capacity", seed, used)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAssignDeterminism: the Scheduler contract requires identical
// decisions for identical context sequences; a fresh planner on the same
// random context must always produce the same grants — and the same
// again when ctx.Jobs is shuffled, because every pass of Assign orders its
// own candidates (EDF and ID for deadline work, arrival and ID for ad-hoc).
func TestQuickAssignDeterminism(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := randomAssignContext(rng)
		a, err1 := New(DefaultConfig()).Assign(ctx)
		b, err2 := New(DefaultConfig()).Assign(ctx)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if !reflect.DeepEqual(a, b) {
			t.Logf("seed %d: same context, different grants:\n%v\n%v", seed, a, b)
			return false
		}
		shuffled := ctx
		shuffled.Jobs = append([]sched.JobState(nil), ctx.Jobs...)
		rng.Shuffle(len(shuffled.Jobs), func(i, j int) {
			shuffled.Jobs[i], shuffled.Jobs[j] = shuffled.Jobs[j], shuffled.Jobs[i]
		})
		c, err3 := New(DefaultConfig()).Assign(shuffled)
		if err3 != nil || !reflect.DeepEqual(a, c) {
			t.Logf("seed %d: shuffled ctx.Jobs, different grants (err %v):\n%v\n%v", seed, err3, a, c)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checked is a FlowTime that holds every Assign to checkClaims.
type checked struct{ *FlowTime }

func (c checked) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	grants, err := c.FlowTime.Assign(ctx)
	if err == nil {
		err = checkClaims(c.FlowTime, ctx, grants)
	}
	return grants, err
}

// TestClaimsHoldAcrossRuns holds every Assign of whole simulated runs to
// checkClaims — not only a fresh planner's first decision: plans reused
// across slots, jobs that ran ahead of them, quality replans, and (with
// actual volumes off their estimates by up to 30 % and a fifth of the jobs
// straggling) the revision backlog, beside an ad-hoc stream heavy enough
// to fill the cluster some of the time. Work conservation over whole runs
// is oracle.TestConservingHoldsOnScenarios' sweep, which core cannot
// import.
func TestClaimsHoldAcrossRuns(t *testing.T) {
	shapes := []workload.Shape{workload.ShapeChain, workload.ShapeFanOut, workload.ShapeDiamond, workload.ShapeRandom}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var wfs []*workflow.Workflow
		for i := 0; i < 3; i++ {
			wf, err := workload.GenerateWorkflow(rng, workload.WorkflowSpec{
				ID: fmt.Sprintf("wf-%d", i), Shape: shapes[rng.Intn(len(shapes))], Jobs: 4 + rng.Intn(5),
				Submit: time.Duration(rng.Int63n(40)) * slotDur, DeadlineFactor: 1.2 + 4*rng.Float64(),
			})
			if err != nil {
				t.Fatalf("GenerateWorkflow: %v", err)
			}
			wfs = append(wfs, wf)
		}
		adhoc, err := workload.GenerateAdHoc(rng, workload.AdHocSpec{
			Count: 12, MeanInterarrival: time.Minute,
			MinTasks: 4, MaxTasks: 24, MinTaskDur: 20 * time.Second, MaxTaskDur: 3 * time.Minute,
			Demand: resource.New(1, 1024),
		})
		if err != nil {
			t.Fatalf("GenerateAdHoc: %v", err)
		}
		f := New(DefaultConfig())
		_, err = sim.Run(sim.Config{
			SlotDur: slotDur, Horizon: 720,
			Capacity:  func(int64) resource.Vector { return resource.New(40, 80_000) },
			Scheduler: checked{f}, Workflows: wfs, AdHoc: adhoc, Invariants: true,
			Faults: &sim.FaultInjection{Seed: seed, RuntimeJitter: 0.3, StragglerFrac: 0.2, StragglerFactor: 3},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if f.Stats().Backfills == 0 {
			t.Errorf("seed %d: the idle pass never fired — the run tested nothing", seed)
		}
	}
}
