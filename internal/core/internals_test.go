package core

import (
	"testing"

	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

func mkPlanJob(id string, rel, dl, tasks int64) *planJob {
	return &planJob{
		state: sched.JobState{
			ID:          id,
			Kind:        sched.DeadlineJob,
			ParallelCap: resource.New(tasks, tasks*100),
		},
		relSlot: rel,
		dlSlot:  dl,
	}
}

func TestFillSlotBudgetAndCaps(t *testing.T) {
	f := New(Config{})
	f.load = make([]resource.Vector, 3)
	a := mkPlanJob("a", 0, 3, 4) // cap 4/slot
	b := mkPlanJob("b", 0, 3, 4)
	alloc := map[string][]resource.Vector{
		"a": make([]resource.Vector, 3),
		"b": make([]resource.Vector, 3),
	}
	remaining := map[*planJob]int64{a: 6, b: 6}

	granted := f.fillSlot([]*planJob{a, b}, remaining, alloc, resource.VCores, 0, 0, 7)
	if granted != 7 {
		t.Errorf("granted = %d, want 7 (budget-bound)", granted)
	}
	if got := alloc["a"][0].Get(resource.VCores); got != 4 {
		t.Errorf("job a slot 0 = %d, want 4 (parallel cap)", got)
	}
	if got := alloc["b"][0].Get(resource.VCores); got != 3 {
		t.Errorf("job b slot 0 = %d, want 3 (budget leftover)", got)
	}
	if remaining[a] != 2 || remaining[b] != 3 {
		t.Errorf("remaining = %d, %d; want 2, 3", remaining[a], remaining[b])
	}
	if f.load[0].Get(resource.VCores) != 7 {
		t.Errorf("load = %d, want 7", f.load[0].Get(resource.VCores))
	}

	// Zero or negative budgets are no-ops.
	if g := f.fillSlot([]*planJob{a}, remaining, alloc, resource.VCores, 1, 0, 0); g != 0 {
		t.Errorf("zero budget granted %d", g)
	}
	if g := f.fillSlot([]*planJob{a}, remaining, alloc, resource.VCores, 1, 0, -5); g != 0 {
		t.Errorf("negative budget granted %d", g)
	}
}

func TestStageAFindsMinimumShortfall(t *testing.T) {
	f := New(Config{})
	cl := view(resource.New(10, 1000), 100)
	// Window of 2 slots, cap 10: at most 20 units can be placed; demand 26
	// means shortfall exactly 6. The second job, earlier in EDF order,
	// fits whole: the shortfall lands on the later deadline.
	late := mkPlanJob("late", 0, 2, 13)
	late.state.EstRemaining = resource.New(21, 0)
	early := mkPlanJob("early", 0, 1, 5)
	early.state.EstRemaining = resource.New(5, 0)
	jobs := []*planJob{late, early}
	probs := f.stageA(sched.AssignContext{Now: 0, Cluster: cl}, jobs, []*planJob{early, late}, 2)
	if len(probs) != 1 || probs[0].kind != resource.VCores || probs[0].err != nil {
		t.Fatalf("stageA = %+v, want one vcores problem", probs)
	}
	if got := probs[0].short; got[0] != 6 || got[1] != 0 {
		t.Errorf("shortfall = %v, want [6 0] (late job short, early job whole)", got)
	}
	if !anyShort(probs) {
		t.Error("anyShort = false with a 6-unit shortfall")
	}
}

// TestSlackKeptWhenOnlyWaterFillingFails is the regression for the slack
// false negative: capacity 2 per slot, X = {3-slot window, cap 1, demand
// 3}, Y = {2-slot window, cap 2, demand 2}. The slack-tightened windows
// are jointly feasible (Y takes 1+1), but an EDF water-fill hands Y both
// units of slot 0 and strands X. The exact stage A must keep the slack.
func TestSlackKeptWhenOnlyWaterFillingFails(t *testing.T) {
	capacity := resource.New(2, 200)
	// One slot of slack: true deadlines are one slot past the windows above.
	f := New(Config{Slack: slotDur, MaxLexRounds: 0})
	jobs := []sched.JobState{
		dlJob("x", 0, 4, resource.New(3, 300), resource.New(1, 100)),
		dlJob("y", 0, 3, resource.New(2, 200), resource.New(2, 200)),
	}
	if _, err := f.Assign(sched.AssignContext{
		Now: 0, Changed: true, Jobs: jobs, Cluster: view(capacity, 100),
	}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if got := f.Stats().SlackDropped; got != 0 {
		t.Errorf("SlackDropped = %d, want 0 (the tightened windows are feasible)", got)
	}
	if w := f.planWindows["x"]; w.DlSlot != 3 {
		t.Errorf("job x planned against deadline slot %d, want the slack-tightened 3", w.DlSlot)
	}
}
