package rmserver

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"flowtime/internal/core"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// livePlanOf reads the plan the server's scheduler published last.
func livePlanOf(rm *Server) *plan.Plan {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.plans.LivePlan()
}

// TestAdHocGateAdmitsAgainstLeftover: the admission gate rejects
// everything before the first plan revision, admits demand that fits the
// plan's leftover afterwards, rejects demand that cannot fit, and does
// not double-book capacity an earlier admission already holds.
func TestAdHocGateAdmitsAgainstLeftover(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true}, &durable{})
	rm := c.rm
	c.register("n1", 8, 16384)

	submit := func(id string, tasks int, durSec, vcores, memMB int64) rmproto.SubmitResponse {
		t.Helper()
		resp, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
			ID: id, Tasks: tasks, TaskDurSec: durSec, DemandVCores: vcores, DemandMemMB: memMB,
		}})
		if err != nil {
			t.Fatalf("SubmitAdHoc(%s): %v", id, err)
		}
		return resp
	}

	// No plan yet: no leftover profile exists, so the gate rejects.
	if resp := submit("early", 1, 10, 1, 128); resp.Accepted {
		t.Fatal("gate admitted before the first plan revision")
	}

	// One tick publishes a plan revision (empty: no deadline jobs), whose
	// leftover is the whole cluster over the default window.
	c.tick()
	if resp := submit("small", 2, 10, 1, 512); !resp.Accepted {
		t.Fatal("gate rejected a trivially feasible job")
	}
	// Demand beyond the whole window's capacity: 8 cores × 64 slots < the
	// volume of 64 tasks × 100 slots each.
	if resp := submit("huge", 64, 10*1000, 8, 16384); resp.Accepted {
		t.Fatal("gate admitted demand exceeding the entire leftover window")
	}

	st := rm.Status()
	if st.Plan == nil || st.Plan.AdHoc == nil {
		t.Fatalf("Status().Plan = %+v, want ad-hoc gate block", st.Plan)
	}
	if st.Plan.AdHoc.Admitted != 1 || st.Plan.AdHoc.Rejected != 2 {
		t.Fatalf("gate counters %+v, want 1 admitted / 2 rejected", st.Plan.AdHoc)
	}
	if st.Plan.AdHoc.Rev < 1 {
		t.Fatalf("gate never rebased onto a plan revision: %+v", st.Plan.AdHoc)
	}

	// The admitted jobs' remaining demand must stay charged across the
	// next rebase: nearly filling the window with admitted-but-
	// undelivered work leaves too little for a same-sized follow-up.
	if resp := submit("fill", 6, 10*64, 1, 2048); !resp.Accepted {
		t.Fatal("gate rejected a job that fits the remaining leftover")
	}
	c.tick()
	if resp := submit("overflow", 6, 10*64, 1, 2048); resp.Accepted {
		t.Fatal("rebase forgot the admitted jobs' remaining demand and double-booked the leftover")
	}
}

// TestAdHocDrainFoldsIntoScheduler: when a plan rebase retires a gate
// window that carried admissions, the per-slot volume they took must
// reach the scheduler through sched.AdHocFolder so the next plan reserves
// it instead of double-booking capacity the gate already promised away.
func TestAdHocDrainFoldsIntoScheduler(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true}, &durable{})
	rm, ft := c.rm, c.rm.cfg.Scheduler.(*core.FlowTime)
	c.register("n1", 8, 16384)

	// First tick publishes the empty plan revision the gate admits against.
	c.tick()
	resp, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "burst", Tasks: 4, TaskDurSec: 10, DemandVCores: 2, DemandMemMB: 1024,
	}})
	if err != nil || !resp.Accepted {
		t.Fatalf("SubmitAdHoc: accepted=%v err=%v", resp.Accepted, err)
	}

	// A deadline workflow forces a new plan revision; the rebase that
	// follows retires the gate window holding the admission, and what it
	// took must be folded into the scheduler.
	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	c.run(2)

	if got := ft.Stats().AdHocFolds; got < 1 {
		t.Fatalf("AdHocFolds = %d, want >= 1: the gate's drain never reached the scheduler", got)
	}
}

// TestRecoveredAdHocReseedsReservations: the scheduler's reservations are
// not durable, and the first gate window of a process retires nothing — so
// on a restarted RM the first rebase must re-seed them from the volume
// the recovered ad-hoc jobs still hold. Without that the planner spreads
// deadline work over slots the gate promised away before the crash.
func TestRecoveredAdHocReseedsReservations(t *testing.T) {
	dir := t.TempDir()
	c1 := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true}, &durable{dir: dir, abandon: true})
	rm1 := c1.rm
	c1.register("n1", 8, 32768)
	c1.tick() // publishes the empty plan the gate admits against
	// 6 of the 8 cores for 10 slots.
	resp, err := rm1.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "held", Tasks: 6, TaskDurSec: 100, DemandVCores: 1, DemandMemMB: 1024,
	}})
	if err != nil || !resp.Accepted {
		t.Fatalf("SubmitAdHoc: accepted=%v err=%v", resp.Accepted, err)
	}
	// Crash: rm1 and its store are abandoned un-closed.

	c2 := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true}, &durable{dir: dir})
	rm2 := c2.rm
	ft := rm2.cfg.Scheduler.(*core.FlowTime)
	c2.register("n1", 8, 32768)
	// 80 core-slots due in 30 slots: spread flat it would put ~3 cores on
	// every slot, the held ones included.
	if _, err := rm2.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: trace.WorkflowRecord{
		ID: "wf-1", DeadlineSec: 300,
		Jobs: []trace.JobRecord{{Name: "a", Tasks: 8, TaskDurSec: 100, DemandVCores: 1, DemandMemMB: 1024}},
	}}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	c2.step()
	if got := ft.Stats().AdHocFolds; got < 1 {
		t.Fatalf("AdHocFolds = %d after the first rebase of a recovered RM, want >= 1", got)
	}
	reseeded := rm2.Status().Slot // the first rebase held slots from here on

	// The fold is quality staleness: the next batched replan plans around it.
	replans := ft.Stats().Replans
	for i := 0; ft.Stats().Replans == replans; i++ {
		if i == 10 {
			t.Fatal("no quality replan within 10 slots of the re-seeding fold")
		}
		c2.step()
	}
	lp := livePlanOf(rm2)
	if lp.From >= reseeded+8 {
		t.Fatalf("quality replan at slot %d, past the slots re-seeded from %d", lp.From, reseeded)
	}
	for slot := lp.From; slot < reseeded+8; slot++ {
		if got := lp.AllocAt("wf-1/a", slot); !got.IsZero() {
			t.Errorf("slot %d: %v of deadline work planned on a slot the recovered ad-hoc job holds", slot, got)
		}
	}
	if err := rm2.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("recovery equivalence: %v", err)
	}
}

// submitOneCore submits a one-core, one-slot ad-hoc job and reports
// whether the gate admitted it.
func submitOneCore(t *testing.T, rm *Server, id string) bool {
	t.Helper()
	resp, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: id, Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 256,
	}})
	if err != nil {
		t.Fatalf("SubmitAdHoc(%s): %v", id, err)
	}
	return resp.Accepted
}

// TestAdHocGateReopensAfterItsWindow: on an idle RM the plan never
// changes, so the default window the first tick published is the only
// one. Once the RM's slot has left that window the gate must open again,
// from the same plan, instead of turning every job away.
func TestAdHocGateReopensAfterItsWindow(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true}, &durable{})
	rm := c.rm
	c.register("n1", 8, 16384)
	c.step()
	for _, slot := range []int64{61, 71, 81} {
		c.runTo(slot)
		if !submitOneCore(t, rm, fmt.Sprintf("slot%d", slot)) {
			t.Fatalf("slot %d: a 1-core job on an idle 8-core RM was rejected (gate %+v)", slot, rm.Status().Plan.AdHoc)
		}
	}
	// The republish at slot 71 also folds the slot-61 admission into the
	// scheduler, whose replan around it brings further revisions.
	if g := rm.Status().Plan.AdHoc; g.Admitted != 3 || g.Rebases < 2 {
		t.Fatalf("gate %+v, want 3 admitted and a republish once the first window passed", g)
	}
}

// TestAdHocGateReopensAfterTheLastWorkflow: once the only workflow has
// completed and its plan's window has passed, an idle cluster admits
// ad-hoc work again.
func TestAdHocGateReopensAfterTheLastWorkflow(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true}, &durable{})
	rm := c.rm
	c.register("n1", 8, 32768)
	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	c.runTo(150)
	for _, j := range rm.Status().Jobs {
		if j.State != "completed" {
			t.Fatalf("job %s is %s at slot 150", j.ID, j.State)
		}
	}
	if !submitOneCore(t, rm, "late") {
		t.Fatalf("a 1-core job on an idle cluster was rejected after the last workflow (gate %+v)", rm.Status().Plan.AdHoc)
	}
}

// TestRestartedGateWaitsForItsFirstReplan: the gate admits against the
// scheduler's own plan, which no journal holds, so a restarted RM and a
// promoted standby each start with no window. Before their first tick the
// gate rejects and reports no plan revision; the tick's replan publishes
// one, the gate admits against it, and that first republish folds what the
// ad-hoc job admitted before the crash still holds.
func TestRestartedGateWaitsForItsFirstReplan(t *testing.T) {
	// held admits one ad-hoc job of 2 cores × 10 slots on rm, after a
	// workflow and one slot gave the gate a plan, and returns its volume.
	held := func(c *cluster) resource.Vector {
		t.Helper()
		c.register("n1", 8, 32768)
		if _, err := c.rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
			t.Fatalf("SubmitWorkflow: %v", err)
		}
		c.step()
		job := trace.AdHocRecord{ID: "held", Tasks: 2, TaskDurSec: 100, DemandVCores: 1, DemandMemMB: 1024}
		resp, err := c.rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: job})
		if err != nil || !resp.Accepted {
			t.Fatalf("SubmitAdHoc: accepted=%v err=%v", resp.Accepted, err)
		}
		a, err := job.ToAdHoc()
		if err != nil {
			t.Fatal(err)
		}
		return a.Volume(slotDur)
	}
	// firstReplan holds a recovered or promoted RM to waiting for its
	// scheduler: rejected and revision -1 before the tick, admitted against
	// the scheduler's revision 1 after it, with the held volume folded.
	firstReplan := func(name string, c *cluster, rec *foldRecorder, volume resource.Vector) {
		t.Helper()
		c.register("n1", 8, 32768)
		if submitOneCore(t, c.rm, name+"-early") {
			t.Fatalf("%s: the gate admitted before the scheduler's first replan", name)
		}
		if p := c.rm.Status().Plan; p.Rev != 0 || p.AdHoc.Rev != -1 || p.AdHoc.Rejected != 1 {
			t.Fatalf("%s: plan %+v, gate %+v before the first tick; want rev 0, gate rev -1 and one rejection", name, p, p.AdHoc)
		}
		c.step()
		if !submitOneCore(t, c.rm, name+"-late") {
			t.Fatalf("%s: the gate rejected a 1-core job after the first replan (gate %+v)", name, c.rm.Status().Plan.AdHoc)
		}
		if g := c.rm.Status().Plan.AdHoc; g.Rev != 1 || g.Rebases != 1 || g.Admitted != 1 {
			t.Fatalf("%s: gate %+v, want one republish from the scheduler's rev 1 and one admission", name, g)
		}
		// The first republish retires no window and re-seeds what the
		// recovered job holds: its whole volume, nothing of it delivered.
		if len(rec.folds) != 2 {
			t.Fatalf("%s: %d folds at the first republish, want the retired window's and the held volume's", name, len(rec.folds))
		}
		var folded resource.Vector
		for _, v := range rec.folds[1] {
			folded = folded.Add(v)
		}
		if folded != volume {
			t.Fatalf("%s: the first republish folded %v, the recovered ad-hoc job holds %v", name, folded, volume)
		}
	}

	dir := t.TempDir()
	volume := held(newCluster(t, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true}, &durable{dir: dir, abandon: true}))
	// Crash: the first RM and its store are abandoned un-closed.
	rec := &foldRecorder{FlowTime: core.New(core.DefaultConfig())}
	firstReplan("restarted", newCluster(t, Config{Scheduler: rec, AdHocGate: true}, &durable{dir: dir}), rec, volume)

	p := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true}, &durable{})
	volume = held(p)
	rec = &foldRecorder{FlowTime: core.New(core.DefaultConfig())}
	standby := newCluster(t, Config{Scheduler: rec, AdHocGate: true, Follower: true}, &durable{})
	pumpRepl(t, p.rm, standby.rm)
	if plan := standby.rm.Status().Plan; plan.Rev != 0 || plan.Jobs != 0 {
		t.Fatalf("a standby reports plan %+v; its scheduler never ran", plan)
	}
	if _, err := standby.rm.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	firstReplan("promoted", standby, rec, volume)
}

// flatGate is a gate whose window [from, from+n) has vcores and mem free
// in every slot.
func flatGate(from, n, vcores, mem int64) *adhocGate {
	g := &adhocGate{from: from, free: make([]resource.Vector, n), took: make([]resource.Vector, n)}
	for i := range g.free {
		g.free[i] = resource.New(vcores, mem)
	}
	return g
}

// TestAdHocGateCharges holds one admission to the gate's contract: the
// whole demand or nothing, front to back from the current slot to the
// window's end, at most the per-slot cap a slot, and exactly what it took
// gone from the free capacity and recorded for the next republish.
func TestAdHocGateCharges(t *testing.T) {
	v := resource.New
	for _, tc := range []struct {
		name            string
		gate            *adhocGate
		slot            int64
		demand, perSlot resource.Vector
		admit           bool
		took            []resource.Vector // per window slot; nil when nothing is taken
	}{
		{name: "reject before the first plan", gate: &adhocGate{}, demand: v(1, 1)},
		{name: "exact charges", gate: flatGate(10, 4, 4, 400), slot: 10, demand: v(6, 300), perSlot: v(2, 100), admit: true,
			took: []resource.Vector{v(2, 100), v(2, 100), v(2, 100), {}}},
		{name: "uncapped fills the first slots", gate: flatGate(0, 3, 3, 300), demand: v(5, 300), admit: true,
			took: []resource.Vector{v(3, 300), v(2, 0), {}}},
		{name: "full rollback on reject", gate: flatGate(0, 2, 3, 300), demand: v(6, 601)},
		{name: "past the window", gate: flatGate(10, 4, 4, 400), slot: 14, demand: v(1, 1)},
		{name: "zero demand past the window", gate: flatGate(10, 4, 4, 400), slot: 20, admit: true},
		{name: "partial overlap", gate: flatGate(10, 4, 2, 200), slot: 12, demand: v(4, 100), perSlot: v(2, 100), admit: true,
			took: []resource.Vector{{}, {}, v(2, 100), v(2, 0)}},
		{name: "partial overlap too short", gate: flatGate(10, 4, 2, 200), slot: 12, demand: v(5, 100), perSlot: v(2, 100)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.gate
			initial := append([]resource.Vector(nil), g.free...)
			if got := g.admit(tc.slot, tc.demand, tc.perSlot); got != tc.admit {
				t.Fatalf("admit = %v, want %v", got, tc.admit)
			}
			if tc.admit && (g.admitted != 1 || g.rejected != 0) || !tc.admit && (g.admitted != 0 || g.rejected != 1) {
				t.Fatalf("counters %d admitted, %d rejected", g.admitted, g.rejected)
			}
			for i := range initial {
				var want resource.Vector
				if tc.took != nil {
					want = tc.took[i]
				}
				if g.took[i] != want || g.free[i] != initial[i].Sub(want) {
					t.Errorf("slot %d: took %v, free %v; want took %v of %v", g.from+int64(i), g.took[i], g.free[i], want, initial[i])
				}
			}
		})
	}
	if rev := (&adhocGate{}).rev(); rev != -1 {
		t.Fatalf("rev %d before the first republish, want -1", rev)
	}
}

// foldRecorder is a FlowTime scheduler that records every ad-hoc fold.
type foldRecorder struct {
	*core.FlowTime
	folds [][]resource.Vector // each fold, indexed from the absolute slot 0
}

func (f *foldRecorder) FoldAdHocDrain(from int64, consumed []resource.Vector) {
	abs := make([]resource.Vector, from+int64(len(consumed)))
	copy(abs[from:], consumed)
	f.folds = append(f.folds, abs)
	f.FlowTime.FoldAdHocDrain(from, consumed)
}

// TestAdHocGateConservesWhatItAdmits plays a seeded sequence of ticks,
// idle stretches, workflows and ad-hoc jobs against a gated RM, with one
// crash and restart halfway. Every admission's takes are read off the
// gate's free capacity (and must add up to the job's volume); after every
// republish, what the scheduler was handed for the retired window must be
// exactly, slot by slot, what that window's admissions took. No free cell
// may ever be negative.
func TestAdHocGateConservesWhatItAdmits(t *testing.T) {
	const ops = 400
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	var (
		c   *cluster
		rm  *Server
		rec *foldRecorder
		// taken is what the current window's admissions took, by absolute
		// slot; rebases and folds are the gate's and the scheduler's counts
		// at the last check.
		taken          []resource.Vector
		rebases, folds int
		nextID         int
		// Totals over the run, to show the sequence exercised the gate.
		admitted, rejected, republishes, expired int
	)
	start := func() {
		rec = &foldRecorder{FlowTime: core.New(core.DefaultConfig())}
		c = newCluster(t, Config{Scheduler: rec, AdHocGate: true}, &durable{dir: dir, policy: store.SyncNever})
		rm = c.rm
		c.register("n1", 8, 32768)
		taken, rebases, folds = nil, 0, 0
	}
	gateFree := func() (from int64, free []resource.Vector) {
		rm.mu.Lock()
		defer rm.mu.Unlock()
		return rm.gate.from, append([]resource.Vector(nil), rm.gate.free...)
	}
	// check runs after every op: a republish must have folded exactly
	// what its retired window's admissions took.
	check := func(op string) {
		t.Helper()
		rm.mu.Lock()
		g := rm.gate
		for i, v := range g.free {
			if v.AnyNegative() {
				t.Fatalf("%s: slot %d free %v", op, g.from+int64(i), v)
			}
		}
		n := int(g.rebases)
		rm.mu.Unlock()
		if n == rebases {
			if len(rec.folds) != folds {
				t.Fatalf("%s: a fold without a republish", op)
			}
			return
		}
		if n != rebases+1 {
			t.Fatalf("%s: %d republishes in one op", op, n-rebases)
		}
		// The first republish of a process also re-seeds what the
		// recovered ad-hoc jobs hold, in a second fold.
		wantFolds := folds + 1
		if rebases == 0 {
			wantFolds++
		}
		if len(rec.folds) != wantFolds {
			t.Fatalf("%s: %d folds after a republish, want %d", op, len(rec.folds), wantFolds)
		}
		retired := rec.folds[folds]
		for slot := 0; slot < max(len(retired), len(taken)); slot++ {
			var got, want resource.Vector
			if slot < len(retired) {
				got = retired[slot]
			}
			if slot < len(taken) {
				want = taken[slot]
			}
			if got != want {
				t.Fatalf("%s: slot %d: folded %v, the retired window's admissions took %v", op, slot, got, want)
			}
		}
		republishes++
		rebases, folds, taken = n, len(rec.folds), nil
	}
	addTaken := func(from int64, before, after []resource.Vector) (total resource.Vector) {
		if need := int(from) + len(after); len(taken) < need {
			taken = append(taken, make([]resource.Vector, need-len(taken))...)
		}
		for i := range after {
			d := before[i].Sub(after[i])
			taken[from+int64(i)] = taken[from+int64(i)].Add(d)
			total = total.Add(d)
		}
		return total
	}

	start()
	for op := 0; op < ops; op++ {
		if op == ops/2 {
			// Crash: the store is abandoned un-closed, leases die with it.
			start()
			check("restart")
		}
		switch r := rng.Intn(10); {
		case r < 5:
			c.step()
			check("tick")
		case r < 6:
			// An idle stretch long enough for a window to pass.
			for n := 20 + rng.Intn(60); n > 0; n-- {
				c.step()
				check("stretch")
			}
		case r < 7:
			nextID++
			wf := chainWorkflow(int64(300 + rng.Intn(900)))
			wf.ID = fmt.Sprintf("wf-%d", nextID)
			if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: wf}); err != nil {
				t.Fatalf("SubmitWorkflow: %v", err)
			}
			check("workflow")
		default:
			nextID++
			job := trace.AdHocRecord{
				ID: fmt.Sprintf("ah-%d", nextID), Tasks: 1 + rng.Intn(8), TaskDurSec: int64(10 + rng.Intn(300)),
				DemandVCores: int64(1 + rng.Intn(2)), DemandMemMB: 1024,
			}
			a, err := job.ToAdHoc()
			if err != nil {
				t.Fatalf("ToAdHoc: %v", err)
			}
			fromBefore, before := gateFree()
			prev := rebases
			resp, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: job})
			if err != nil {
				t.Fatalf("SubmitAdHoc: %v", err)
			}
			check("adhoc")
			from, after := gateFree()
			if rebases != prev {
				// The window had passed: the admission charged a window
				// republished for it, fresh but for this job's takes.
				expired++
				fromBefore, before = from, nil
				rm.mu.Lock()
				for i, v := range rm.gate.free {
					before = append(before, v.Add(rm.gate.took[i]))
				}
				rm.mu.Unlock()
			}
			if fromBefore != from || len(before) != len(after) {
				t.Fatalf("%s: the window moved without a republish", job.ID)
			}
			total := addTaken(from, before, after)
			switch {
			case resp.Accepted && total != a.Volume(slotDur):
				t.Fatalf("%s: admitted, took %v of its volume %v", job.ID, total, a.Volume(slotDur))
			case !resp.Accepted && !total.IsZero():
				t.Fatalf("%s: rejected, yet took %v", job.ID, total)
			case resp.Accepted:
				admitted++
			default:
				rejected++
			}
		}
	}
	t.Logf("%d admitted, %d rejected, %d republishes, %d on a passed window", admitted, rejected, republishes, expired)
	if admitted == 0 || rejected == 0 || expired == 0 {
		t.Fatalf("the sequence did not exercise the gate: %d admitted, %d rejected, %d on a passed window", admitted, rejected, expired)
	}
}

// TestGateRequiresStreamingScheduler: the gate without a plan-streaming
// scheduler is a configuration error, not a silent always-reject queue.
func TestGateRequiresStreamingScheduler(t *testing.T) {
	_, err := New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO(), AdHocGate: true})
	if err == nil || !strings.Contains(err.Error(), "plan-streaming") {
		t.Fatalf("New with gate on FIFO = %v, want plan-streaming error", err)
	}
}
