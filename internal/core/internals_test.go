package core

import (
	"slices"
	"strings"
	"testing"

	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// planLoad returns p's planned load per slot offset: the sum of every
// job's allocation at that offset.
func planLoad(p *plan.Plan) []resource.Vector {
	load := make([]resource.Vector, p.NSlots)
	for _, j := range p.Jobs {
		for i, g := range j.Alloc {
			off := j.Window.Rel - p.From + int64(i)
			load[off] = load[off].Add(g)
		}
	}
	return load
}

func mkPlanJob(id string, rel, dl, tasks int64) *planJob {
	return &planJob{
		state: sched.JobState{
			ID:          id,
			Kind:        sched.DeadlineJob,
			ParallelCap: resource.New(tasks, tasks*100),
		},
		relSlot: rel,
		dlSlot:  dl,
		slackDl: dl,
	}
}

func TestFillSlotBudgetAndCaps(t *testing.T) {
	a := mkPlanJob("a", 0, 3, 4) // cap 4/slot
	b := mkPlanJob("b", 0, 3, 4)
	a.state.EstRemaining, b.state.EstRemaining = resource.New(6, 0), resource.New(6, 0)
	jobs := []*planJob{a, b}
	probs := New(Config{}).stageA(sched.AssignContext{Now: 0, Cluster: view(resource.New(10, 1000), 100)}, jobs, 3, 3)
	if len(probs) != 1 || probs[0].kind != resource.VCores {
		t.Fatalf("stageA = %+v, want one vcores problem", probs)
	}
	p := probs[0]
	p.reset()

	granted := p.fill(0, 7)
	if granted != 7 {
		t.Errorf("granted = %d, want 7 (budget-bound)", granted)
	}
	next := merge(probs, jobs, 0, 3)
	if got := next.Jobs["a"].Alloc[0].Get(resource.VCores); got != 4 {
		t.Errorf("job a slot 0 = %d, want 4 (parallel cap)", got)
	}
	if got := next.Jobs["b"].Alloc[0].Get(resource.VCores); got != 3 {
		t.Errorf("job b slot 0 = %d, want 3 (budget leftover)", got)
	}
	if p.left[0] != 2 || p.left[1] != 3 {
		t.Errorf("left = %d, %d; want 2, 3", p.left[0], p.left[1])
	}
	if got := planLoad(next)[0].Get(resource.VCores); got != 7 {
		t.Errorf("slot 0 load = %d, want 7", got)
	}

	// Zero or negative budgets are no-ops.
	if g := p.fill(1, 0); g != 0 {
		t.Errorf("zero budget granted %d", g)
	}
	if g := p.fill(1, -5); g != 0 {
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
	probs := f.stageA(sched.AssignContext{Now: 0, Cluster: cl}, jobs, 2, 2)
	if len(probs) != 1 || probs[0].kind != resource.VCores || probs[0].err != nil {
		t.Fatalf("stageA = %+v, want one vcores problem", probs)
	}
	if got := probs[0].route.Short; got[0] != 6 || got[1] != 0 {
		t.Errorf("shortfall = %v, want [6 0] (late job short, early job whole)", got)
	}
	if !probs[0].isShort() {
		t.Error("isShort = false with a 6-unit shortfall")
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
	f := New(Config{Slack: slotDur})
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
	if w := f.live.Jobs["x"].Window; w.Dl != 3 {
		t.Errorf("job x planned against deadline slot %d, want the slack-tightened 3", w.Dl)
	}
}

// TestOverdueJobPlansInOneSlot pins what a replan does with a job whose
// window has closed: it is planned in [now, now+1), whatever its MinSlots,
// and what one slot's parallel cap cannot take is deferred to the overdue
// pass. That deficiency is a stage A shortfall, so the replan drops the
// deadline slack for every job, the loose one beside it too.
func TestOverdueJobPlansInOneSlot(t *testing.T) {
	f := New(DefaultConfig()) // 60 s of slack: six slots
	late := dlJob("late", 0, 3, resource.New(40, 4000), resource.New(4, 400))
	late.MinSlots = 10
	loose := dlJob("loose", 0, 100, resource.New(10, 1000), resource.New(2, 200))
	if _, err := f.Assign(sched.AssignContext{
		Now: 5, Changed: true, Jobs: []sched.JobState{late, loose}, Cluster: view(resource.New(16, 1600), 200),
	}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if w := f.live.Jobs["late"].Window; w != (plan.Window{Rel: 5, Dl: 6}) {
		t.Errorf("overdue job planned in %v, want {5 6}", w)
	}
	if d := f.deferred["late"].Get(resource.VCores); d != 36 {
		t.Errorf("overdue job deferred %d vcores, want 36", d)
	}
	if n := f.Stats().SlackDropped; n != 1 {
		t.Errorf("SlackDropped = %d, want 1", n)
	}
	if w := f.live.Jobs["loose"].Window; w.Dl != 100 {
		t.Errorf("loose job planned against deadline slot %d, want its true 100", w.Dl)
	}
}

// TestKeptSlackLeavesTheTrueHorizonOut pins a replan that keeps the
// slack beside gate reservations, one on the last slot of the true
// horizon, past the slack's: the slack pass routes on the network of the
// true windows, where that reservation has its slot, but in the instance
// the plan keeps it does not exist. Capacity 4 a slot, two slots of slack,
// and one job of demand 30 and cap 4 due at slot 10, so due at 8 under the
// slack: the plan spans the slack's 8 slots, not the true 10; the
// reservation of 3 on slot 0 keeps the 2 the job leaves and yields 1; and
// the one of 4 on slot 9 neither keeps nor yields anything.
func TestKeptSlackLeavesTheTrueHorizonOut(t *testing.T) {
	f := New(Config{Slack: 2 * slotDur})
	rsv := make([]resource.Vector, 10)
	rsv[0], rsv[9] = resource.New(3, 0), resource.New(4, 0)
	f.FoldAdHocDrain(0, rsv)
	job := dlJob("a", 0, 10, resource.New(30, 0), resource.New(4, 0))
	if _, err := f.Assign(sched.AssignContext{
		Now: 0, Changed: true, Jobs: []sched.JobState{job}, Cluster: view(resource.New(4, 400), 100),
	}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	s := f.Stats()
	if s.SlackDropped != 0 {
		t.Fatalf("SlackDropped = %d, want the slack kept", s.SlackDropped)
	}
	if s.AdHocYields != 1 || s.AdHocYielded != resource.New(1, 0) {
		t.Errorf("%d yields of %v, want 1 of 1 vcore", s.AdHocYields, s.AdHocYielded)
	}
	live := f.LivePlan()
	if live.NSlots != 8 {
		t.Errorf("the plan spans %d slots, want the slack's 8", live.NSlots)
	}
	var got []int64
	for _, g := range live.Jobs["a"].Alloc {
		got = append(got, g.Get(resource.VCores))
	}
	if w := live.Jobs["a"].Window; w != (plan.Window{Rel: 0, Dl: 8}) || !slices.Equal(got, []int64{2, 4, 4, 4, 4, 4, 4, 4}) {
		t.Errorf("job a planned %v over %v, want [2 4 4 4 4 4 4 4] over {0 8}", got, w)
	}
}

// checkLive holds f's live plan to checkPlan against jobs as they stood at
// the replan that built it.
func checkLive(f *FlowTime, jobs []sched.JobState) error {
	pjs := make([]*planJob, len(jobs))
	for i, j := range jobs {
		pjs[i] = &planJob{state: j}
	}
	return checkPlan(f.live, pjs, f.planCap)
}

// onePlan is a plan over [from, from+nSlots) holding one job "j" with
// window [rel, dl) and one grant per slot from rel on.
func onePlan(from, nSlots, rel, dl int64, grants ...resource.Vector) *plan.Plan {
	return &plan.Plan{From: from, NSlots: nSlots, Jobs: map[string]plan.Job{
		"j": {Window: plan.Window{Rel: rel, Dl: dl}, Alloc: grants},
	}}
}

// demandJob is a job as checkPlan sees it: its parallel cap and demand.
func demandJob(id string, parCap, demand resource.Vector) *planJob {
	return &planJob{state: sched.JobState{ID: id, ParallelCap: parCap, EstRemaining: demand}}
}

func flatCaps(n int, c resource.Vector) []resource.Vector {
	caps := make([]resource.Vector, n)
	for i := range caps {
		caps[i] = c
	}
	return caps
}

func TestCheckPlan(t *testing.T) {
	capacity := resource.New(10, 1000)
	par := resource.New(4, 400)
	demand := resource.New(8, 800)
	g := resource.New(4, 400)
	j := []*planJob{demandJob("j", par, demand)}
	var zero resource.Vector

	tests := []struct {
		name    string
		plan    *plan.Plan
		jobs    []*planJob
		wantErr string
	}{
		{name: "valid plan", plan: onePlan(0, 2, 0, 2, g, g), jobs: j},
		{name: "a window inside a longer plan", plan: onePlan(0, 3, 1, 2, g), jobs: j},
		{name: "missing window", plan: onePlan(0, 1, 0, 0, g), jobs: j, wantErr: "invalid"},
		{name: "negative grant", plan: onePlan(0, 1, 0, 1, resource.New(-1, 100)), jobs: j, wantErr: "negative allocation"},
		{name: "row longer than its window", plan: onePlan(0, 3, 1, 3, zero, g, g), jobs: j, wantErr: "alloc slots"},
		{name: "window past the plan end", plan: onePlan(0, 1, 0, 2, zero, g), jobs: j, wantErr: "outside the plan"},
		{name: "grant exceeds parallel cap", plan: onePlan(0, 1, 0, 1, resource.New(5, 500)), jobs: j, wantErr: "parallel cap"},
		{name: "total exceeds demand", plan: onePlan(0, 3, 0, 3, g, g, g), jobs: j, wantErr: "more than its demand"},
		{
			name: "slot load exceeds capacity",
			plan: &plan.Plan{NSlots: 1, Jobs: map[string]plan.Job{
				"a": {Window: plan.Window{Rel: 0, Dl: 1}, Alloc: []resource.Vector{g}},
				"b": {Window: plan.Window{Rel: 0, Dl: 1}, Alloc: []resource.Vector{g}},
				"c": {Window: plan.Window{Rel: 0, Dl: 1}, Alloc: []resource.Vector{g}},
			}},
			jobs:    []*planJob{demandJob("a", par, demand), demandJob("b", par, demand), demandJob("c", par, demand)},
			wantErr: "exceeds capacity",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := checkPlan(tt.plan, tt.jobs, flatCaps(int(tt.plan.NSlots), capacity))
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("checkPlan = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("checkPlan = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestCheckPlanOffsetsAreAbsolute: a plan built at slot 5 with a window
// [5, 7) — offset 0 is slot 5, for the window and in what an error names —
// and caps indexed by offset.
func TestCheckPlanOffsetsAreAbsolute(t *testing.T) {
	p := onePlan(5, 2, 5, 7, resource.New(2, 200), resource.New(2, 200))
	jobs := []*planJob{demandJob("j", resource.New(4, 400), resource.New(4, 400))}
	if err := checkPlan(p, jobs, flatCaps(2, resource.New(10, 1000))); err != nil {
		t.Fatalf("checkPlan = %v, want nil", err)
	}
	caps := []resource.Vector{resource.New(10, 1000), resource.New(1, 1000)}
	if err := checkPlan(p, jobs, caps); err == nil || !strings.Contains(err.Error(), "slot 6 ") {
		t.Fatalf("checkPlan = %v, want slot 6 over capacity", err)
	}
}
