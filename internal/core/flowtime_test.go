package core

import (
	"reflect"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

const slotDur = 10 * time.Second

func view(capacity resource.Vector, horizon int64) sched.ClusterView {
	return sched.ClusterView{
		SlotDur: slotDur,
		Horizon: horizon,
		CapAt:   func(int64) resource.Vector { return capacity },
	}
}

func dlJob(id string, release, deadlineSlots int64, volume, capV resource.Vector) sched.JobState {
	return sched.JobState{
		ID:           id,
		Kind:         sched.DeadlineJob,
		WorkflowID:   "wf",
		JobName:      id,
		Release:      time.Duration(release) * slotDur,
		Deadline:     time.Duration(deadlineSlots) * slotDur,
		EstRemaining: volume,
		ParallelCap:  capV,
		MinSlots:     1,
		Request:      capV.Min(volume),
		Ready:        true,
	}
}

func adhoc(id string, arrived time.Duration, request resource.Vector) sched.JobState {
	return sched.JobState{
		ID: id, Kind: sched.AdHocJob, Arrived: arrived, Request: request, Ready: true,
	}
}

func TestNameAndConfig(t *testing.T) {
	f := New(DefaultConfig())
	if f.Name() != "FlowTime" {
		t.Errorf("Name = %q", f.Name())
	}
	if DefaultConfig().Slack != 60*time.Second {
		t.Errorf("default slack = %v, want 60s (the paper's setting)", DefaultConfig().Slack)
	}
}

func TestFlattensLooseJobAcrossWindow(t *testing.T) {
	// One job: volume 100 cores over a 100-slot window on a 10-core
	// cluster. The lexmin plan must run it at ~1 core/slot, leaving ~9
	// cores/slot to ad-hoc work — the essence of Fig. 1(b).
	f := New(Config{Slack: 0})
	job := dlJob("j", 0, 100, resource.New(100, 10000), resource.New(10, 1000))
	ctx := sched.AssignContext{
		Now: 0, Changed: true,
		Jobs:    []sched.JobState{job, adhoc("a", 0, resource.New(10, 1000))},
		Cluster: view(resource.New(10, 1000), 200),
	}
	grants, err := f.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	jg := grants["j"]
	if jg.Get(resource.VCores) > 2 {
		t.Errorf("deadline job granted %v in slot 0, want ~1 core (flattened)", jg)
	}
	ag := grants["a"]
	if ag.Get(resource.VCores) < 8 {
		t.Errorf("ad-hoc granted %v, want ~9 cores of leftover", ag)
	}
}

func TestPlanMeetsDemandByDeadline(t *testing.T) {
	// Three jobs with staggered windows; summing the plan must cover each
	// job's demand within its window.
	f := New(Config{Slack: 0})
	jobs := []sched.JobState{
		dlJob("a", 0, 10, resource.New(40, 4000), resource.New(8, 800)),
		dlJob("b", 5, 20, resource.New(60, 6000), resource.New(10, 1000)),
		dlJob("c", 10, 30, resource.New(30, 3000), resource.New(5, 500)),
	}
	ctx := sched.AssignContext{
		Now: 0, Changed: true, Jobs: jobs,
		Cluster: view(resource.New(10, 1000), 40),
	}
	if _, err := f.Assign(ctx); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	for _, j := range jobs {
		var got resource.Vector
		pj := f.live.Jobs[j.ID]
		rel := int64(j.Release / slotDur)
		dl := int64(j.Deadline / slotDur)
		for i, g := range pj.Alloc {
			if g.IsZero() {
				continue
			}
			t0 := pj.Window.Rel + int64(i)
			if t0 < rel || t0 >= dl {
				t.Errorf("job %s allocated %v at slot %d outside window [%d, %d)", j.ID, g, t0, rel, dl)
			}
			if !g.FitsIn(j.ParallelCap) {
				t.Errorf("job %s slot %d grant %v exceeds parallel cap %v", j.ID, t0, g, j.ParallelCap)
			}
			got = got.Add(g)
		}
		if got != j.EstRemaining {
			t.Errorf("job %s planned %v, want exactly %v", j.ID, got, j.EstRemaining)
		}
	}
	// Planned load never exceeds capacity.
	for t0, l := range planLoad(f.live) {
		if !l.FitsIn(resource.New(10, 1000)) {
			t.Errorf("slot %d planned load %v exceeds capacity", t0, l)
		}
	}
}

func TestPlanIsIntegral(t *testing.T) {
	// Lemma 2 (total unimodularity) + integral repair: grants are integers
	// by construction (resource.Vector is integer-typed), and they must
	// conserve demand exactly even when the LP optimum is fractional
	// (demand 7 over 3 slots).
	f := New(Config{Slack: 0})
	job := dlJob("j", 0, 3, resource.New(7, 700), resource.New(10, 1000))
	ctx := sched.AssignContext{
		Now: 0, Changed: true, Jobs: []sched.JobState{job},
		Cluster: view(resource.New(10, 1000), 10),
	}
	if _, err := f.Assign(ctx); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	var total resource.Vector
	for _, g := range f.live.Jobs["j"].Alloc {
		total = total.Add(g)
	}
	if total != job.EstRemaining {
		t.Errorf("plan total = %v, want %v", total, job.EstRemaining)
	}
}

func TestSlackShiftsWorkEarlier(t *testing.T) {
	// With 60s (6-slot) slack, a job whose window is [0, 10) must be fully
	// served by slot 4.
	f := New(Config{Slack: 60 * time.Second})
	job := dlJob("j", 0, 10, resource.New(20, 2000), resource.New(10, 1000))
	ctx := sched.AssignContext{
		Now: 0, Changed: true, Jobs: []sched.JobState{job},
		Cluster: view(resource.New(10, 1000), 20),
	}
	if _, err := f.Assign(ctx); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	var before, after resource.Vector
	pj := f.live.Jobs["j"]
	for i, g := range pj.Alloc {
		if pj.Window.Rel+int64(i) < 4 {
			before = before.Add(g)
		} else {
			after = after.Add(g)
		}
	}
	if !after.IsZero() {
		t.Errorf("slack ignored: %v allocated at/after the slacked deadline", after)
	}
	if before != job.EstRemaining {
		t.Errorf("allocated %v before slacked deadline, want %v", before, job.EstRemaining)
	}
}

func TestOverdueJobServedBestEffort(t *testing.T) {
	// Deadline already passed: the job must still be fed (ahead of ad-hoc).
	f := New(Config{Slack: 0})
	job := dlJob("late", 0, 5, resource.New(30, 3000), resource.New(10, 1000))
	ctx := sched.AssignContext{
		Now: 8, Changed: true,
		Jobs:    []sched.JobState{job, adhoc("a", 0, resource.New(10, 1000))},
		Cluster: view(resource.New(10, 1000), 50),
	}
	grants, err := f.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if g := grants["late"]; g.Get(resource.VCores) < 10 {
		t.Errorf("overdue job granted %v, want the full cluster before ad-hoc", g)
	}
	if g := grants["a"]; !g.IsZero() {
		t.Errorf("ad-hoc granted %v while an overdue deadline job is starving", g)
	}
}

func TestInfeasibleDemandDegradesGracefully(t *testing.T) {
	// Demand beyond any feasible schedule within the window: FlowTime must
	// not error; the shortfall path schedules what fits and the rest runs
	// overdue.
	f := New(Config{Slack: 0})
	job := dlJob("big", 0, 4, resource.New(1000, 100000), resource.New(10, 1000))
	job.Request = resource.New(10, 1000)
	ctx := sched.AssignContext{
		Now: 0, Changed: true, Jobs: []sched.JobState{job},
		Cluster: view(resource.New(10, 1000), 50),
	}
	grants, err := f.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if g := grants["big"]; g.Get(resource.VCores) != 10 {
		t.Errorf("grant = %v, want full capacity for the doomed job", g)
	}
	if f.Stats().ShortfallEvents == 0 {
		t.Error("ShortfallEvents = 0, want > 0 (per-kind shortfalls recorded)")
	}
}

func TestNotReadyJobNotGranted(t *testing.T) {
	f := New(Config{Slack: 0})
	blocked := dlJob("blocked", 0, 10, resource.New(20, 2000), resource.New(10, 1000))
	blocked.Ready = false
	ctx := sched.AssignContext{
		Now: 0, Changed: true, Jobs: []sched.JobState{blocked},
		Cluster: view(resource.New(10, 1000), 20),
	}
	grants, err := f.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if g := grants["blocked"]; !g.IsZero() {
		t.Errorf("blocked job granted %v", g)
	}
}

func TestPlanReusedWhileOnSchedule(t *testing.T) {
	// A job consuming exactly its planned grants must never force a
	// replan; a new arrival must.
	f := New(Config{Slack: 0})
	job := dlJob("j", 0, 20, resource.New(40, 4000), resource.New(10, 1000))
	cl := view(resource.New(10, 1000), 40)

	for now := int64(0); now < 4; now++ {
		grants, err := f.Assign(sched.AssignContext{
			Now: now, Changed: now == 0, Jobs: []sched.JobState{job}, Cluster: cl,
		})
		if err != nil {
			t.Fatalf("Assign(%d): %v", now, err)
		}
		job.EstRemaining = job.EstRemaining.SubClamped(grants["j"])
		job.Request = job.ParallelCap.Min(job.EstRemaining)
	}
	if got := f.Stats().Replans; got != 1 {
		t.Errorf("Replans = %d, want 1 (on-schedule consumption must reuse the plan)", got)
	}

	newcomer := dlJob("k", 4, 30, resource.New(20, 2000), resource.New(10, 1000))
	if _, err := f.Assign(sched.AssignContext{
		Now: 4, Changed: true, Jobs: []sched.JobState{job, newcomer}, Cluster: cl,
	}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if got := f.Stats().Replans; got != 2 {
		t.Errorf("Replans = %d, want 2 after an arrival", got)
	}
}

// TestLookaheadLeavesFarReleasesForLater pins the planning lookahead
// (planSlots = 120): a job released 119 slots after Now is in the first
// plan, one released 121 slots after it is not, and the latter is planned
// by the replan its release triggers.
func TestLookaheadLeavesFarReleasesForLater(t *testing.T) {
	f := New(Config{Slack: 0})
	cl := view(resource.New(10, 1000), 1000)
	now := dlJob("now", 0, 20, resource.New(20, 2000), resource.New(10, 1000))
	near := dlJob("near", 119, 150, resource.New(10, 1000), resource.New(10, 1000))
	far := dlJob("far", 121, 160, resource.New(10, 1000), resource.New(10, 1000))
	near.Ready, far.Ready = false, false

	if _, err := f.Assign(sched.AssignContext{Now: 0, Changed: true, Jobs: []sched.JobState{now, near, far}, Cluster: cl}); err != nil {
		t.Fatalf("Assign(0): %v", err)
	}
	if !f.planKnown("now") || !f.planKnown("near") || f.planKnown("far") {
		t.Fatalf("first plan holds now %v, near %v, far %v; want now and near (released 119 slots ahead) but not far (121)",
			f.planKnown("now"), f.planKnown("near"), f.planKnown("far"))
	}

	far.Ready = true
	if _, err := f.Assign(sched.AssignContext{Now: 121, Changed: true, Jobs: []sched.JobState{near, far}, Cluster: cl}); err != nil {
		t.Fatalf("Assign(121): %v", err)
	}
	if got := f.Stats().Replans; got != 2 || !f.planKnown("far") {
		t.Errorf("at far's release: %d replans, far planned %v; want the release to replan it in", got, f.planKnown("far"))
	}
}

func TestEmptyContext(t *testing.T) {
	f := New(DefaultConfig())
	grants, err := f.Assign(sched.AssignContext{
		Now: 0, Changed: true,
		Cluster: view(resource.New(10, 1000), 10),
	})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if len(grants) != 0 {
		t.Errorf("grants = %v, want empty", grants)
	}
}

func TestAdHocFIFOOverLeftovers(t *testing.T) {
	f := New(Config{Slack: 0})
	ctx := sched.AssignContext{
		Now: 0, Changed: true,
		Jobs: []sched.JobState{
			adhoc("second", 20*time.Second, resource.New(8, 800)),
			adhoc("first", 0, resource.New(8, 800)),
		},
		Cluster: view(resource.New(10, 1000), 10),
	}
	grants, err := f.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if g := grants["first"]; g != resource.New(8, 800) {
		t.Errorf("first grant = %v, want full request", g)
	}
	if g := grants["second"]; g != resource.New(2, 200) {
		t.Errorf("second grant = %v, want leftover <2,200>", g)
	}
}

func TestReplanOnLiveCapacityChange(t *testing.T) {
	// The capacity *function* changes between slots (a node died), unlike
	// a profile step known in advance: the plan must go stale.
	f := New(Config{Slack: 0})
	job := dlJob("j", 0, 30, resource.New(60, 6000), resource.New(10, 1000))
	capacity := resource.New(20, 2000)
	mk := func(now int64) sched.AssignContext {
		return sched.AssignContext{
			Now: now, Changed: now == 0, Jobs: []sched.JobState{job},
			Cluster: sched.ClusterView{
				SlotDur: slotDur,
				Horizon: 100,
				CapAt:   func(int64) resource.Vector { return capacity },
			},
		}
	}
	grants, err := f.Assign(mk(0))
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	job.EstRemaining = job.EstRemaining.SubClamped(grants["j"])
	if got := f.Stats().Replans; got != 1 {
		t.Fatalf("Replans = %d, want 1", got)
	}

	capacity = resource.New(8, 800) // a node died
	if _, err := f.Assign(mk(1)); err != nil {
		t.Fatalf("Assign after capacity drop: %v", err)
	}
	if got := f.Stats().Replans; got != 2 {
		t.Errorf("Replans = %d, want 2 (live capacity change must replan)", got)
	}
	// The new plan must respect the reduced capacity.
	for off, l := range planLoad(f.live) {
		if !l.FitsIn(capacity) {
			t.Errorf("plan slot %d load %v exceeds reduced capacity %v", off, l, capacity)
		}
	}
}

// drive plays job through Assign for the given slots, consuming every
// grant, holds each call to checkAssign, and returns the grants per slot.
// others are passed through unchanged every slot (ad-hoc jobs that never
// finish).
func drive(t *testing.T, f *FlowTime, cl sched.ClusterView, slots int64, job *sched.JobState, others ...sched.JobState) []map[string]resource.Vector {
	t.Helper()
	var out []map[string]resource.Vector
	for now := int64(0); now < slots; now++ {
		ctx := sched.AssignContext{Now: now, Changed: now == 0, Cluster: cl, Jobs: append([]sched.JobState(nil), others...)}
		if !job.EstRemaining.IsZero() {
			ctx.Jobs = append(ctx.Jobs, *job)
		}
		grants, err := f.Assign(ctx)
		if err != nil {
			t.Fatalf("Assign(%d): %v", now, err)
		}
		if err := checkAssign(f, ctx, grants); err != nil {
			t.Fatal(err)
		}
		job.EstRemaining = job.EstRemaining.SubClamped(grants[job.ID])
		job.Request = job.ParallelCap.Min(job.EstRemaining)
		out = append(out, grants)
	}
	return out
}

func TestIdleCapacityGoesToDeadlineWork(t *testing.T) {
	// An empty 10-core cluster and one job: 20 cores of work, window
	// [0, 10), so the flat plan is 2 a slot. Nothing else wants the other
	// 8: the job runs at its parallel cap and is done after slot 1, not 9.
	f := New(Config{Slack: 0})
	job := dlJob("j", 0, 10, resource.New(20, 2000), resource.New(10, 1000))
	got := drive(t, f, view(resource.New(10, 1000), 40), 3, &job)
	for now, want := range []resource.Vector{resource.New(10, 1000), resource.New(10, 1000), {}} {
		if g := got[now]["j"]; g != want {
			t.Errorf("slot %d: granted %v, want %v (slice 2 + 8 idle)", now, g, want)
		}
	}
	if st := f.Stats(); st.Backfills != 2 || st.Backfilled != resource.New(16, 1600) {
		t.Errorf("Backfills = %d, Backfilled = %v; want 2 slots, <16,1600>", st.Backfills, st.Backfilled)
	}
}

func TestIdlePassNeverTakesFromAdHoc(t *testing.T) {
	// The same job beside an ad-hoc job that asks for the other 8 cores
	// every slot: the ad-hoc job is served first and in full, the deadline
	// job keeps to its slice, and the idle pass never fires.
	f := New(Config{Slack: 0})
	job := dlJob("j", 0, 10, resource.New(20, 2000), resource.New(10, 1000))
	got := drive(t, f, view(resource.New(10, 1000), 40), 10, &job, adhoc("a", 0, resource.New(8, 800)))
	for now, grants := range got {
		if g := grants["a"]; g != resource.New(8, 800) {
			t.Errorf("slot %d: ad-hoc granted %v, want its whole request", now, g)
		}
		if g := grants["j"]; g != resource.New(2, 200) {
			t.Errorf("slot %d: deadline job granted %v, want its slice <2,200> and nothing more", now, g)
		}
	}
	if !job.EstRemaining.IsZero() {
		t.Errorf("job has %v left after its window", job.EstRemaining)
	}
	if st := f.Stats(); st.Backfills != 0 || !st.Backfilled.IsZero() {
		t.Errorf("Backfills = %d, Backfilled = %v; want none beside a hungry ad-hoc job", st.Backfills, st.Backfilled)
	}
}

func TestBacklogPassDoesNotRepeatTheSlice(t *testing.T) {
	// The backlog pass measures demand beyond the plan after this slot's
	// grants: in the first slot after a replan planRemaining has just been
	// debited by the slice, and a remaining estimate taken before the slot
	// would look one slice short — the job got its slice twice, ahead of
	// ad-hoc work (4 instead of 2 here, up to PR 19). Beside an ad-hoc job
	// that is short in every slot the job gets exactly its slice, in the
	// slot that follows a replan (0, and 3 when the cluster grows) like in
	// any other.
	f := New(Config{Slack: 0})
	hungry := adhoc("a", 0, resource.New(20, 2000))
	job := dlJob("j", 0, 10, resource.New(20, 2000), resource.New(10, 1000))
	for now := int64(0); now < 6; now++ {
		capacity := resource.New(10, 1000)
		if now >= 3 {
			capacity = resource.New(12, 1200)
		}
		replans := f.Stats().Replans
		ctx := sched.AssignContext{Now: now, Changed: now == 0, Jobs: []sched.JobState{job, hungry}, Cluster: view(capacity, 40)}
		grants, err := f.Assign(ctx)
		if err != nil {
			t.Fatalf("Assign(%d): %v", now, err)
		}
		if err := checkAssign(f, ctx, grants); err != nil {
			t.Fatal(err)
		}
		if replanned := f.Stats().Replans > replans; replanned != (now == 0 || now == 3) {
			t.Fatalf("slot %d: replanned = %v", now, replanned)
		}
		if g := grants["j"]; g != resource.New(2, 200) {
			t.Errorf("slot %d: deadline job granted %v, want exactly its slice <2,200>", now, g)
		}
		if g := grants["a"]; g != capacity.Sub(resource.New(2, 200)) {
			t.Errorf("slot %d: ad-hoc granted %v, want everything but the slice", now, g)
		}
		job.EstRemaining = job.EstRemaining.SubClamped(grants["j"])
		job.Request = job.ParallelCap.Min(job.EstRemaining)
	}
}

func TestReleaseIsNotALaunchGate(t *testing.T) {
	// Chain a -> b with b's decomposed window [5, 10). a runs on the idle
	// cluster and is done after slot 1; b is ready in slot 2 and must be
	// granted there, three slots before its release, without a replan.
	f := New(Config{Slack: 0})
	cl := view(resource.New(10, 1000), 40)
	a := dlJob("a", 0, 5, resource.New(20, 2000), resource.New(10, 1000))
	b := dlJob("b", 5, 10, resource.New(20, 2000), resource.New(10, 1000))
	b.Ready = false
	drive(t, f, cl, 2, &a, b)
	if !a.EstRemaining.IsZero() {
		t.Fatalf("a has %v left after slot 1", a.EstRemaining)
	}
	replans := f.Stats().Replans
	b.Ready = true
	ctx := sched.AssignContext{Now: 2, Jobs: []sched.JobState{b}, Cluster: cl}
	grants, err := f.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if err := checkAssign(f, ctx, grants); err != nil {
		t.Fatal(err)
	}
	if g := grants["b"]; g != resource.New(10, 1000) {
		t.Errorf("b granted %v in the first slot it is ready, want the idle cluster", g)
	}
	if got := f.Stats().Replans; got != replans {
		t.Errorf("Replans %d -> %d: running ahead of the plan must not make it stale", replans, got)
	}
}

func TestIdlePassSkipsBlockedAndSatisfiedJobs(t *testing.T) {
	// Idle capacity does not override readiness, and a job that asks for
	// nothing gets nothing.
	f := New(Config{Slack: 0})
	blocked := dlJob("blocked", 5, 10, resource.New(20, 2000), resource.New(10, 1000))
	blocked.Ready = false
	sated := dlJob("sated", 5, 10, resource.New(20, 2000), resource.New(10, 1000))
	sated.Request = resource.Vector{} // everything it can run is in flight
	ctx := sched.AssignContext{
		Now: 0, Changed: true, Jobs: []sched.JobState{blocked, sated},
		Cluster: view(resource.New(10, 1000), 40),
	}
	grants, err := f.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if len(grants) != 0 {
		t.Errorf("grants = %v, want none", grants)
	}
	if err := checkAssign(f, ctx, grants); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Backfills != 0 {
		t.Errorf("Backfills = %d, want 0", st.Backfills)
	}
}

func TestOffersComeAfterEveryReadyJob(t *testing.T) {
	// A job that turns ready inside the slot is offered what is left once
	// every ready job, deadline or ad-hoc, has all it asked for — earliest
	// deadline first among such jobs — and marking it so changes no other
	// grant. A blocked job that is not marked still gets nothing.
	cl := view(resource.New(10, 1000), 60)
	ready := dlJob("ready", 20, 40, resource.New(30, 3000), resource.New(4, 400))
	small := adhoc("a", 0, resource.New(3, 300))
	next := dlJob("next", 20, 50, resource.New(30, 3000), resource.New(8, 800))
	sooner := dlJob("sooner", 20, 45, resource.New(30, 3000), resource.New(2, 200))
	blocked := dlJob("blocked", 20, 30, resource.New(30, 3000), resource.New(8, 800))
	next.Ready, sooner.Ready, blocked.Ready = false, false, false

	assign := func(jobs ...sched.JobState) (map[string]resource.Vector, Stats) {
		t.Helper()
		f := New(Config{Slack: 0})
		ctx := sched.AssignContext{Now: 0, Changed: true, Jobs: jobs, Cluster: cl}
		grants, err := f.Assign(ctx)
		if err != nil {
			t.Fatalf("Assign: %v", err)
		}
		if err := checkAssign(f, ctx, grants); err != nil {
			t.Fatal(err)
		}
		return grants, f.Stats()
	}
	without, _ := assign(ready, small, next, sooner, blocked)
	if len(without) != 2 || without["ready"] != ready.Request || without["a"] != small.Request {
		t.Fatalf("grants without offers = %v, want ready and a whole and nothing else", without)
	}
	next.ReadyOnConfirm, sooner.ReadyOnConfirm = true, true
	with, st := assign(ready, small, next, sooner, blocked)
	want := map[string]resource.Vector{
		"ready": ready.Request, "a": small.Request,
		"sooner": resource.New(2, 200), "next": resource.New(1, 100),
	}
	if !reflect.DeepEqual(with, want) {
		t.Errorf("grants = %v, want %v", with, want)
	}
	if st.Backfills != 1 || st.Backfilled != resource.New(7, 700) {
		t.Errorf("Backfills = %d, Backfilled = %v; want the ready job's 4 and the offers' 3 in one slot", st.Backfills, st.Backfilled)
	}

	// Beside an ad-hoc job that wants more than is left, nothing is offered.
	hungry := adhoc("h", 0, resource.New(10, 1000))
	grants, _ := assign(ready, hungry, next, sooner)
	if g, ok := grants["next"]; ok || !grants["sooner"].IsZero() {
		t.Errorf("offers beside a short ad-hoc job: next %v, sooner %v", g, grants["sooner"])
	}
}

func TestIdlePassIsEDFThenID(t *testing.T) {
	// Two candidates for idle capacity that covers one: the earlier
	// deadline wins, equal deadlines go by ID, and the order of ctx.Jobs
	// does not matter.
	cl := view(resource.New(10, 1000), 60)
	late := dlJob("a-late", 20, 40, resource.New(30, 3000), resource.New(10, 1000))
	early := dlJob("z-early", 20, 30, resource.New(30, 3000), resource.New(10, 1000))
	twin := dlJob("b-twin", 20, 30, resource.New(30, 3000), resource.New(10, 1000))
	tests := []struct {
		name   string
		jobs   []sched.JobState
		winner string
	}{
		{"earlier deadline", []sched.JobState{late, early}, "z-early"},
		{"equal deadlines by ID", []sched.JobState{early, twin}, "b-twin"},
		{"all three", []sched.JobState{late, early, twin}, "b-twin"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var first map[string]resource.Vector
			for rot := range tt.jobs {
				jobs := append(append([]sched.JobState(nil), tt.jobs[rot:]...), tt.jobs[:rot]...)
				ctx := sched.AssignContext{Now: 0, Changed: true, Jobs: jobs, Cluster: cl}
				f := New(Config{Slack: 0})
				grants, err := f.Assign(ctx)
				if err != nil {
					t.Fatalf("Assign: %v", err)
				}
				if err := checkAssign(f, ctx, grants); err != nil {
					t.Fatal(err)
				}
				if len(grants) != 1 || grants[tt.winner] != resource.New(10, 1000) {
					t.Errorf("rotation %d: grants = %v, want the idle cluster to %s alone", rot, grants, tt.winner)
				}
				if first == nil {
					first = grants
				} else if !reflect.DeepEqual(first, grants) {
					t.Errorf("rotation %d: grants %v differ from rotation 0's %v", rot, grants, first)
				}
			}
		})
	}
}

func TestRevisionBeforeReleaseWaitsBehindAdHoc(t *testing.T) {
	// A job that ran ahead of its window and outlived its estimate there
	// has revision backlog but no claim yet: until its release the backlog
	// pass skips it, so the ad-hoc job beside it keeps the whole cluster —
	// running early must never cost ad-hoc work anything, even indirectly.
	f := New(Config{Slack: 0})
	cl := view(resource.New(10, 1000), 40)
	hungry := adhoc("a", 0, resource.New(10, 1000))
	b := dlJob("b", 5, 10, resource.New(20, 2000), resource.New(10, 1000))
	for now := int64(0); now < 5; now++ {
		if now == 1 {
			b.EstRemaining = resource.New(30, 3000) // revised upward: 10 beyond the plan
		}
		ctx := sched.AssignContext{Now: now, Changed: now < 2, Jobs: []sched.JobState{b, hungry}, Cluster: cl}
		grants, err := f.Assign(ctx)
		if err != nil {
			t.Fatalf("Assign(%d): %v", now, err)
		}
		if err := checkAssign(f, ctx, grants); err != nil {
			t.Fatal(err)
		}
		if g := grants["b"]; !g.IsZero() {
			t.Errorf("slot %d: b granted %v before its release beside a hungry ad-hoc job", now, g)
		}
		if g := grants["a"]; g != hungry.Request {
			t.Errorf("slot %d: ad-hoc granted %v, want the whole cluster", now, g)
		}
	}
	// From its release on the revised demand is planned work like any other.
	ctx := sched.AssignContext{Now: 5, Jobs: []sched.JobState{b, hungry}, Cluster: cl}
	grants, err := f.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign(5): %v", err)
	}
	if g := grants["b"]; g.Get(resource.VCores) < 6 {
		t.Errorf("slot 5: b granted %v, want at least its flat share of 30 over 5 slots", g)
	}
}

func TestNewSchedulerUnknown(t *testing.T) {
	if _, err := NewScheduler("Nope", nil, DefaultConfig()); err == nil {
		t.Error("unknown scheduler accepted")
	}
}
