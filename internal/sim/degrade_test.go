package sim

import (
	"reflect"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// chaosWorkload is a Fig-4-style mix: several workflows with staggered
// deadlines plus an ad-hoc stream.
func chaosWorkload(t *testing.T) ([]*workflow.Workflow, []workflow.AdHoc) {
	t.Helper()
	var wfs []*workflow.Workflow
	for i, dl := range []time.Duration{1500 * time.Second, 2000 * time.Second, 2500 * time.Second} {
		w := workflow.New("w"+string(rune('a'+i)), time.Duration(i)*100*time.Second, dl)
		a := w.AddJob(simpleJob("j1", 6, 300*time.Second))
		b := w.AddJob(simpleJob("j2", 6, 300*time.Second))
		w.AddDep(a, b)
		if err := w.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		wfs = append(wfs, w)
	}
	adhoc := []workflow.AdHoc{
		{ID: "a1", Submit: 0, Tasks: 4, TaskDuration: 100 * time.Second, TaskDemand: resource.New(1, 100)},
		{ID: "a2", Submit: 800 * time.Second, Tasks: 4, TaskDuration: 100 * time.Second, TaskDemand: resource.New(1, 100)},
	}
	return wfs, adhoc
}

func chaosConfig(t *testing.T, s sched.Scheduler) Config {
	t.Helper()
	wfs, adhoc := chaosWorkload(t)
	return Config{
		SlotDur:    slotDur,
		Horizon:    600,
		Capacity:   constCap(resource.New(10, 1000)),
		Scheduler:  s,
		Workflows:  wfs,
		AdHoc:      adhoc,
		Invariants: true,
	}
}

// TestSameInputSamePlan: the planner reads no clock and iterates no map,
// so two runs on one input must agree on everything — every job outcome,
// every counter — and with a healthy planner the ladder never trips. (The
// run with every planner call failing lives in internal/core, beside the
// unexported seam that injects the failure.)
func TestSameInputSamePlan(t *testing.T) {
	run := func() *Result {
		res, err := Run(chaosConfig(t, core.New(core.DefaultConfig())))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if d := a.Degradation; d == nil || d.MinMaxFallbacks+d.GreedyFallbacks+d.InvalidPlans != 0 || d.Level != sched.DegradeNone {
		t.Fatalf("healthy planner degraded: %+v", a.Degradation)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs on the same input differ")
	}
}

// chaosPerturbed is chaosConfig with its workflows' true durations up to
// 30 % off their estimates and a fifth of the jobs straggling 2-4x, drawn
// by workload.InjectChaos from seed.
func chaosPerturbed(t *testing.T, seed int64) Config {
	t.Helper()
	cfg := chaosConfig(t, core.New(core.DefaultConfig()))
	if err := workload.InjectChaos(seed, cfg.Workflows); err != nil {
		t.Fatalf("InjectChaos: %v", err)
	}
	return cfg
}

func TestFaultInjectionDeterministic(t *testing.T) {
	runOnce := func() *Result {
		res, err := Run(chaosPerturbed(t, 7))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs with the same fault seed diverged")
	}
}

func TestFaultInjectionPerturbsOutcomes(t *testing.T) {
	clean := chaosConfig(t, core.New(core.DefaultConfig()))
	cleanRes, err := Run(clean)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	pRes, err := Run(chaosPerturbed(t, 7))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Jobs running off their estimates, some at 2-4x, must move completions.
	if reflect.DeepEqual(cleanRes.Jobs, pRes.Jobs) {
		t.Error("straggler injection left every deadline outcome unchanged")
	}
	for _, j := range pRes.Jobs {
		if !j.Completed {
			t.Errorf("job %s/%s never completed under stragglers", j.WorkflowID, j.JobName)
		}
	}
}

// TestBestEffortAdmission: a workflow whose deadline window is shorter
// than one slot has no feasible decomposition under any strategy. It must
// be admitted best-effort — the run proceeds, the job still completes —
// rather than aborting the simulation.
func TestBestEffortAdmission(t *testing.T) {
	w := workflow.New("impossible", 0, 5*time.Second) // < one 10s slot
	w.AddJob(simpleJob("j", 2, 20*time.Second))
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cfg := baseConfig(core.New(core.DefaultConfig()))
	cfg.Workflows = []*workflow.Workflow{w}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v (infeasible decomposition must not abort the run)", err)
	}
	if res.BestEffortJobs != 1 {
		t.Errorf("BestEffortJobs = %d, want 1", res.BestEffortJobs)
	}
	if len(res.Jobs) != 1 || !res.Jobs[0].Completed {
		t.Fatalf("best-effort job outcome = %+v, want completed", res.Jobs)
	}
	if !res.Jobs[0].Missed() {
		t.Error("impossible deadline reported as met")
	}
	if res.StalledSlots != 0 {
		t.Errorf("StalledSlots = %d, want 0", res.StalledSlots)
	}
}
