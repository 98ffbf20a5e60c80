package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/sim"
	"flowtime/internal/workflow"
)

// twoJobMix is a feasible two-job instance sharing one window.
func twoJobMix() []sched.JobState {
	return []sched.JobState{
		dlJob("a", 0, 10, resource.New(40, 40*512), resource.New(10, 10*512)),
		dlJob("b", 0, 10, resource.New(60, 60*512), resource.New(12, 12*512)),
	}
}

// failingPlanner is the planFault seam's simplest use: every call into
// the flow planner fails.
func failingPlanner(resource.Kind) error { return errors.New("injected planner fault") }

func TestLadderStepsDownToGreedyOnPlannerError(t *testing.T) {
	capacity := resource.New(20, 20*1024)
	f := New(Config{Slack: 0, MaxLexRounds: 3})
	f.planFault = failingPlanner
	jobs := twoJobMix()
	grants, err := f.Assign(sched.AssignContext{
		Now: 0, Changed: true, Jobs: jobs, Cluster: view(capacity, 100),
	})
	if err != nil {
		t.Fatalf("Assign: %v (planner failures must never fail Assign)", err)
	}

	d := f.Degradation()
	if d.Level != sched.DegradeGreedy {
		t.Errorf("Level = %v, want greedy", d.Level)
	}
	if d.GreedyFallbacks < 1 {
		t.Errorf("GreedyFallbacks = %d, want >= 1", d.GreedyFallbacks)
	}
	if !strings.Contains(d.Reason, "stage A") || !strings.Contains(d.Reason, "injected planner fault") {
		t.Errorf("Reason = %q, want the stage and the planner's error", d.Reason)
	}
	if !d.Degraded() {
		t.Error("Degraded() = false after a greedy fallback")
	}

	// Regression for the zero-grant-slot bug: a one-shot planner failure
	// must not leave slot 0 empty while demand and capacity exist.
	var total resource.Vector
	for _, g := range grants {
		total = total.Add(g)
	}
	if total.IsZero() {
		t.Fatal("zero grants in slot 0 despite demand and capacity (planner failure leaked)")
	}

	// The degraded plan must still satisfy every plan invariant.
	capAt := func(int64) resource.Vector { return capacity }
	if err := sched.ValidatePlan(f.plan, f.planFrom, f.planWindows, capAt); err != nil {
		t.Errorf("greedy plan fails validation: %v", err)
	}
	// Conservation: the whole demand fits the window, so nothing defers.
	for _, j := range jobs {
		var planned resource.Vector
		for _, g := range f.plan[j.ID] {
			planned = planned.Add(g)
		}
		if got := planned.Add(f.deferred[j.ID]); got != j.EstRemaining {
			t.Errorf("job %s planned+deferred %v != demand %v", j.ID, got, j.EstRemaining)
		}
	}
}

func TestLadderStepsDownOnPlannerPanic(t *testing.T) {
	capacity := resource.New(20, 20*1024)
	f := New(Config{Slack: 0, MaxLexRounds: 3})
	f.planFault = func(resource.Kind) error { panic("injected planner panic") }
	grants, err := f.Assign(sched.AssignContext{
		Now: 0, Changed: true, Jobs: twoJobMix(), Cluster: view(capacity, 100),
	})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if got := f.Degradation().Level; got != sched.DegradeGreedy {
		t.Errorf("Level = %v, want greedy", got)
	}
	if r := f.Degradation().Reason; !strings.Contains(r, "panic") {
		t.Errorf("Reason = %q, want the panic reported", r)
	}
	if len(grants) == 0 {
		t.Error("no grants after a planner panic")
	}
}

// TestLadderStepsDownPerKindOnStageBFailure: stage A answers for both
// kinds, then the skyline fails for memory alone. Memory is planned
// greedily, vcores keep their flow plan.
func TestLadderStepsDownPerKindOnStageBFailure(t *testing.T) {
	capacity := resource.New(20, 20*1024)
	cfg := Config{Slack: 0, MaxLexRounds: 3, StreamPlans: true}
	// run plans twoJobMix with the planner failing for memory on the call
	// numbered failOn (0: never; 1 is stage A, 2 stage B).
	run := func(failOn int) *FlowTime {
		f := New(cfg)
		calls := map[resource.Kind]int{}
		f.planFault = func(k resource.Kind) error {
			calls[k]++
			if k == resource.MemoryMB && calls[k] == failOn {
				return errors.New("injected fault")
			}
			return nil
		}
		if _, err := f.Assign(sched.AssignContext{
			Now: 0, Changed: true, Jobs: twoJobMix(), Cluster: view(capacity, 100),
		}); err != nil {
			t.Fatalf("Assign: %v", err)
		}
		return f
	}
	f := run(2)
	d := f.Degradation()
	if d.Level != sched.DegradeGreedy || !strings.Contains(d.Reason, "stage B") {
		t.Errorf("Level = %v, Reason = %q; want greedy via stage B", d.Level, d.Reason)
	}
	// Vcores are planned as a fault-free run plans them; memory as a run
	// whose memory planner fails outright, which is the greedy rung.
	flowPlan, greedyPlan := run(0).LivePlan(), run(1).LivePlan()
	for id, j := range f.LivePlan().Jobs {
		for off, g := range j.Alloc {
			if v, want := g.Get(resource.VCores), flowPlan.Jobs[id].Alloc[off].Get(resource.VCores); v != want {
				t.Errorf("job %s offset %d: %d vcores planned, the flow plan has %d", id, off, v, want)
			}
			if m, want := g.Get(resource.MemoryMB), greedyPlan.Jobs[id].Alloc[off].Get(resource.MemoryMB); m != want {
				t.Errorf("job %s offset %d: %d MB planned, the greedy plan has %d", id, off, m, want)
			}
		}
	}
	if plan.Equal(flowPlan, greedyPlan) == nil {
		t.Error("the flow and greedy plans agree: the rung each kind took is not visible")
	}
	capAt := func(int64) resource.Vector { return capacity }
	if err := sched.ValidatePlan(f.plan, f.planFrom, f.planWindows, capAt); err != nil {
		t.Errorf("mixed-rung plan fails validation: %v", err)
	}
}

// TestOverflowStepsDownToGreedy trips the ladder with no seam at all:
// memory figures so large that scaling the network by a level's
// denominator cannot fit an int64. The planner reports the overflow and
// that kind is planned greedily; nothing wraps, nothing fails.
func TestOverflowStepsDownToGreedy(t *testing.T) {
	const huge = int64(1) << 50
	capacity := resource.New(20, huge)
	jobs := []sched.JobState{
		dlJob("a", 0, 10, resource.New(40, 3*huge+12345), resource.New(10, huge/2+7)),
		dlJob("b", 0, 7, resource.New(30, 2*huge+999), resource.New(12, huge/3+1)),
	}
	f := New(Config{Slack: 0, MaxLexRounds: 3})
	if _, err := f.Assign(sched.AssignContext{
		Now: 0, Changed: true, Jobs: jobs, Cluster: view(capacity, 100),
	}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	d := f.Degradation()
	if d.Level != sched.DegradeGreedy || !strings.Contains(d.Reason, "overflow") {
		t.Fatalf("Level = %v, Reason = %q; want greedy on an overflow", d.Level, d.Reason)
	}
	capAt := func(int64) resource.Vector { return capacity }
	if err := sched.ValidatePlan(f.plan, f.planFrom, f.planWindows, capAt); err != nil {
		t.Errorf("plan fails validation: %v", err)
	}
	for _, j := range jobs {
		var planned resource.Vector
		for _, g := range f.plan[j.ID] {
			planned = planned.Add(g)
		}
		if got := planned.Add(f.deferred[j.ID]); got != j.EstRemaining {
			t.Errorf("job %s planned+deferred %v != demand %v", j.ID, got, j.EstRemaining)
		}
	}
}

func TestLadderRecoversAtNextReplan(t *testing.T) {
	// Trip the ladder once, then replan with a healthy planner: the level
	// must return to full while the fallback counters keep their history.
	capacity := resource.New(20, 20*1024)
	f := New(Config{Slack: 0, MaxLexRounds: 3})
	f.planFault = failingPlanner
	cl := view(capacity, 100)
	if _, err := f.Assign(sched.AssignContext{Now: 0, Changed: true, Jobs: twoJobMix(), Cluster: cl}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if f.Degradation().Level != sched.DegradeGreedy {
		t.Fatalf("Level = %v, want greedy after trip", f.Degradation().Level)
	}
	f.planFault = nil
	// New arrival forces an urgent replan.
	jobs := append(twoJobMix(), dlJob("c", 1, 9, resource.New(10, 10*512), resource.New(5, 5*512)))
	if _, err := f.Assign(sched.AssignContext{Now: 1, Changed: true, Jobs: jobs, Cluster: cl}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	d := f.Degradation()
	if d.Level != sched.DegradeNone {
		t.Errorf("Level = %v, want full once the planner answers again", d.Level)
	}
	if d.GreedyFallbacks < 1 {
		t.Errorf("GreedyFallbacks = %d, want history preserved", d.GreedyFallbacks)
	}
}

// TestChaosFailingPlannerStillCompletes is the acceptance chaos test, run
// through the simulator: with every call into the flow planner failing,
// every replan lands on the greedy rung — and the run still completes
// every deadline job with zero stalled slots. (It lives here rather than
// beside the simulator's other chaos tests because the fault seam is
// unexported.)
func TestChaosFailingPlannerStillCompletes(t *testing.T) {
	var wfs []*workflow.Workflow
	for i, dl := range []time.Duration{1500 * time.Second, 2000 * time.Second, 2500 * time.Second} {
		w := workflow.New("w"+string(rune('a'+i)), time.Duration(i)*100*time.Second, dl)
		job := func(name string) workflow.Job {
			return workflow.Job{Name: name, Tasks: 6, TaskDuration: 300 * time.Second, TaskDemand: resource.New(1, 100)}
		}
		w.AddDep(w.AddJob(job("j1")), w.AddJob(job("j2")))
		if err := w.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		wfs = append(wfs, w)
	}
	f := New(DefaultConfig())
	f.planFault = failingPlanner
	res, err := sim.Run(sim.Config{
		SlotDur:   slotDur,
		Horizon:   600,
		Capacity:  func(int64) resource.Vector { return resource.New(10, 1000) },
		Scheduler: f,
		Workflows: wfs,
		AdHoc: []workflow.AdHoc{
			{ID: "a1", Submit: 0, Tasks: 4, TaskDuration: 100 * time.Second, TaskDemand: resource.New(1, 100)},
			{ID: "a2", Submit: 800 * time.Second, Tasks: 4, TaskDuration: 100 * time.Second, TaskDemand: resource.New(1, 100)},
		},
		Invariants: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.StalledSlots != 0 {
		t.Errorf("StalledSlots = %d, want 0 (degraded planner must keep granting)", res.StalledSlots)
	}
	for _, j := range res.Jobs {
		if !j.Completed {
			t.Errorf("deadline job %s/%s never completed under the greedy rung", j.WorkflowID, j.JobName)
		}
	}
	d := res.Degradation
	if d == nil {
		t.Fatal("Degradation = nil, want ladder telemetry from FlowTime")
	}
	if d.GreedyFallbacks == 0 {
		t.Errorf("GreedyFallbacks = 0, want > 0 (every replan should trip to greedy)")
	}
	if !d.Degraded() {
		t.Error("Degraded() = false with a failing planner")
	}
}

func TestDeferredDemandRetriedAfterInterval(t *testing.T) {
	// Demand 60 in a 3-slot window on a 10/slot cluster: 30 places, 30
	// defers. The deferred volume is served by the overdue path and the
	// planner must schedule exactly one retry replan, at now+10.
	capacity := resource.New(10, 1000)
	cl := view(capacity, 100)
	f := New(Config{Slack: 0, MaxLexRounds: 2})

	consumed := resource.Vector{}
	demand := resource.New(60, 6000)
	parCap := resource.New(20, 2000)
	for now := int64(0); now <= 10; now++ {
		var jobs []sched.JobState
		if est := demand.SubClamped(consumed); !est.IsZero() {
			j := dlJob("j", 0, 3, est, parCap)
			j.Request = parCap.Min(est)
			jobs = append(jobs, j)
		}
		grants, err := f.Assign(sched.AssignContext{
			Now: now, Changed: now == 0, Jobs: jobs, Cluster: cl,
		})
		if err != nil {
			t.Fatalf("slot %d: Assign: %v", now, err)
		}
		consumed = consumed.Add(grants["j"])

		switch now {
		case 0:
			if f.stats.Replans != 1 {
				t.Fatalf("slot 0: Replans = %d, want 1", f.stats.Replans)
			}
			if got := f.deferred["j"]; got != resource.New(30, 3000) {
				t.Fatalf("slot 0: deferred = %v, want <30, 3000>", got)
			}
			if f.deferredRetry != deferredRetryInterval {
				t.Fatalf("slot 0: deferredRetry = %d, want %d", f.deferredRetry, deferredRetryInterval)
			}
		case 5:
			if !demand.FitsIn(consumed) {
				t.Fatalf("slot 5: consumed %v, want full demand %v (overdue path serves deferral)", consumed, demand)
			}
		case 9:
			if f.stats.Replans != 1 {
				t.Fatalf("slot 9: Replans = %d, want still 1 (retry not due)", f.stats.Replans)
			}
		case 10:
			if f.stats.Replans != 2 {
				t.Fatalf("slot 10: Replans = %d, want 2 (deferred retry due)", f.stats.Replans)
			}
			if f.deferredRetry != 0 {
				t.Errorf("slot 10: deferredRetry = %d, want 0 (reset by replan)", f.deferredRetry)
			}
		}
	}
}

func TestBestEffortJobsExcludedFromPlanning(t *testing.T) {
	capacity := resource.New(10, 1000)
	cl := view(capacity, 100)
	f := New(Config{Slack: 0, MaxLexRounds: 2})

	normal := dlJob("a", 0, 10, resource.New(40, 4000), resource.New(10, 1000))
	be := dlJob("b", 0, 20, resource.New(5, 500), resource.New(5, 500))
	be.BestEffort = true

	grants, err := f.Assign(sched.AssignContext{
		Now: 0, Changed: true, Jobs: []sched.JobState{normal, be}, Cluster: cl,
	})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if _, ok := f.plan["b"]; ok {
		t.Error("best-effort job entered the joint plan")
	}
	if _, ok := f.planWindows["b"]; ok {
		t.Error("best-effort job has a plan window")
	}
	if _, ok := f.plan["a"]; !ok {
		t.Error("normal job missing from the plan")
	}
	// The best-effort job still runs, from leftover capacity.
	if g := grants["b"]; g.IsZero() {
		t.Error("best-effort job received nothing despite leftover capacity")
	}

	// An unplanned best-effort job must not trigger a replan loop.
	replans := f.stats.Replans
	normal.EstRemaining = normal.EstRemaining.SubClamped(grants["a"])
	be.EstRemaining = resource.New(5, 500) // still unplanned demand
	if _, err := f.Assign(sched.AssignContext{
		Now: 1, Jobs: []sched.JobState{normal, be}, Cluster: cl,
	}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if f.stats.Replans != replans {
		t.Errorf("Replans = %d, want %d (best-effort demand is not staleness)", f.stats.Replans, replans)
	}
}

// TestPlanValidationProperty fuzzes Assign across ladder-relevant configs
// and checks every produced plan against the shared validator — the same
// check replan runs before serving a plan, exercised here end to end.
func TestPlanValidationProperty(t *testing.T) {
	configs := map[string]Config{
		"default":         DefaultConfig(),
		"failing-planner": {Slack: 0, MaxLexRounds: 3},
		"single-round":    {Slack: 0, MaxLexRounds: 1},
		"exact":           {Slack: 0, MaxLexRounds: 0},
		"tight-slack":     {Slack: 60 * time.Second, MaxLexRounds: 2},
	}
	capacity := resource.New(16, 16*1024)
	cl := view(capacity, 300)
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 15; trial++ {
				now := rng.Int63n(10)
				nJobs := 1 + rng.Intn(6)
				jobs := make([]sched.JobState, 0, nJobs)
				for i := 0; i < nJobs; i++ {
					rel := now + rng.Int63n(20)
					win := 2 + rng.Int63n(30)
					tasks := int64(1 + rng.Intn(8))
					perSlot := resource.New(tasks, tasks*512)
					jobs = append(jobs, dlJob(fmt.Sprintf("j%02d", i), rel, rel+win,
						perSlot.Scale(1+rng.Int63n(win)), perSlot))
				}
				f := New(cfg)
				if name == "failing-planner" {
					f.planFault = failingPlanner
				}
				if _, err := f.Assign(sched.AssignContext{
					Now: now, Changed: true, Jobs: jobs, Cluster: cl,
				}); err != nil {
					t.Fatalf("trial %d: Assign: %v", trial, err)
				}
				capAt := func(int64) resource.Vector { return capacity }
				if err := sched.ValidatePlan(f.plan, f.planFrom, f.planWindows, capAt); err != nil {
					t.Fatalf("trial %d: plan fails validation: %v", trial, err)
				}
				if n := f.Degradation().InvalidPlans; n != 0 {
					t.Fatalf("trial %d: InvalidPlans = %d, want 0 (pipeline emitted an invalid plan)", trial, n)
				}
			}
		})
	}
}
