package rmserver

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/plan"
	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// newStreamingRM builds a durable RM whose FlowTime scheduler streams
// plan diffs. Crash tests pass closeStore=false and abandon the store.
func newStreamingRM(t *testing.T, dir string, closeStore bool, gate bool) (*Server, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncAlways})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	if closeStore {
		t.Cleanup(func() { st.Close() })
	}
	cfg := core.DefaultConfig()
	cfg.StreamPlans = true
	rm, err := New(Config{SlotDur: slotDur, Scheduler: core.New(cfg), Store: st, AdHocGate: gate})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rm, st
}

// livePlanOf snapshots a server's live plan.
func livePlanOf(rm *Server) *plan.Plan {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.livePlanLocked().Clone()
}

// TestPlanDiffsJournaledAndRecovered: diffs journaled during normal
// operation rebuild the identical live plan after a crash, and the first
// post-restart replan repairs the broken diff chain with exactly one
// journaled rebase.
func TestPlanDiffsJournaledAndRecovered(t *testing.T) {
	dir := t.TempDir()
	rm1, _ := newStreamingRM(t, dir, false, false)
	register(t, rm1, "n1", 8, 32768)
	if _, err := rm1.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	runSlots(t, rm1, "n1", 3, nil)

	before := livePlanOf(rm1)
	if before.Rev == 0 {
		t.Fatal("no plan revision applied after 3 slots of a streaming scheduler")
	}
	st := rm1.Status()
	if st.Plan == nil || st.Plan.Rev != before.Rev {
		t.Fatalf("Status().Plan = %+v, want rev %d", st.Plan, before.Rev)
	}
	if st.Faults.PlanDiffsApplied == 0 {
		t.Fatal("PlanDiffsApplied counter never moved")
	}
	if err := rm1.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("recovery equivalence with a live plan: %v", err)
	}
	// Crash: rm1 and its store are abandoned un-closed.

	rm2, _ := newStreamingRM(t, dir, true, false)
	after := livePlanOf(rm2)
	if after.Rev != before.Rev {
		t.Fatalf("recovered plan at rev %d, want %d", after.Rev, before.Rev)
	}
	if err := plan.Equal(after, before); err != nil {
		t.Fatalf("recovered plan diverges from pre-crash plan: %v", err)
	}

	// The restarted scheduler's revision counter restarts at zero, so its
	// first diff cannot chain onto the recovered revision: the RM must
	// rebase wholesale — once — and end up matching the scheduler again.
	// (The node must re-register first; without capacity no replan runs.)
	register(t, rm2, "n1", 8, 32768)
	if err := rm2.Tick(time.Now()); err != nil {
		t.Fatalf("Tick after recovery: %v", err)
	}
	if got := rm2.Status().Faults.PlanRebases; got != 1 {
		t.Fatalf("PlanRebases = %d after the post-recovery replan, want 1", got)
	}
	if err := rm2.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch2")); err != nil {
		t.Fatalf("recovery equivalence after rebase: %v", err)
	}
}

// TestPlanDiffReplayIdempotentAndFenced exercises the replay path
// directly: a duplicate diff is skipped, a diff that does not chain onto
// the live revision is refused loudly, and a malformed payload is
// refused before anything mutates.
func TestPlanDiffReplayIdempotentAndFenced(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.StreamPlans = true
	rm := newRM(t, core.New(cfg))

	mustRecord := func(d *plan.Diff) []byte {
		t.Helper()
		var codec walCodec
		rec, err := codec.encode(&walRecord{PlanDiff: &recPlanDiff{Diff: d}})
		if err != nil {
			t.Fatalf("encode record: %v", err)
		}
		return rec
	}

	rm.mu.Lock()
	defer rm.mu.Unlock()
	first := mustRecord(&plan.Diff{BaseRev: 0, NewRev: 1, From: 5, NSlots: 2})
	if err := rm.applyRecordLocked(first); err != nil {
		t.Fatalf("apply first diff: %v", err)
	}
	if rm.livePlan.Rev != 1 || rm.faults.PlanDiffsApplied != 1 {
		t.Fatalf("rev %d, applied %d after first diff", rm.livePlan.Rev, rm.faults.PlanDiffsApplied)
	}
	// Idempotent: replaying the same record changes nothing.
	if err := rm.applyRecordLocked(first); err != nil {
		t.Fatalf("duplicate replay: %v", err)
	}
	if rm.livePlan.Rev != 1 || rm.faults.PlanDiffsApplied != 1 {
		t.Fatalf("duplicate replay mutated state: rev %d, applied %d", rm.livePlan.Rev, rm.faults.PlanDiffsApplied)
	}
	// A gap in the chain is corrupt history: refused loudly, nothing applied.
	gap := mustRecord(&plan.Diff{BaseRev: 4, NewRev: 5, From: 5, NSlots: 2})
	if err := rm.applyRecordLocked(gap); err == nil || !strings.Contains(err.Error(), "does not chain") {
		t.Fatalf("gap replay = %v, want chain error", err)
	}
	if rm.livePlan.Rev != 1 {
		t.Fatalf("gap replay moved the plan to rev %d", rm.livePlan.Rev)
	}
	// Malformed payloads: refused by the strict codec before anything
	// mutates — a byte after the diff, a torn diff, a tag nothing writes,
	// and the JSON form RMs before the binary codec journaled.
	next := mustRecord(&plan.Diff{BaseRev: 1, NewRev: 2, From: 5, NSlots: 2})
	for name, bad := range map[string][]byte{
		"trailing byte": append(append([]byte{}, next...), 0),
		"torn":          next[:len(next)-1],
		"unknown tag":   append([]byte{0x7f}, next[1:]...),
		"JSON record":   []byte(`{"plan_diff":{"diff":{"base_rev":1,"new_rev":2,"from":5,"n_slots":2}}}`),
	} {
		if err := rm.applyRecordLocked(bad); err == nil {
			t.Errorf("malformed diff payload (%s) replayed without error", name)
		}
		if rm.livePlan.Rev != 1 {
			t.Fatalf("malformed diff payload (%s) moved the plan to rev %d", name, rm.livePlan.Rev)
		}
	}
}

// TestPlanReplicatesToFollower: journaled plan diffs ride the existing
// WAL shipping path, so a warm standby holds the primary's live plan —
// and still holds it after promotion.
func TestPlanReplicatesToFollower(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary, _ := newStreamingRM(t, pdir, true, false)
	follower, _ := newReplicaRM(t, fdir, "")

	register(t, primary, "n1", 8, 32768)
	if _, err := primary.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	runSlots(t, primary, "n1", 3, nil)
	pumpRepl(t, primary, follower)

	want := livePlanOf(primary)
	if want.Rev == 0 {
		t.Fatal("primary never applied a plan revision")
	}
	got := livePlanOf(follower)
	if got.Rev != want.Rev {
		t.Fatalf("follower plan at rev %d, primary at %d", got.Rev, want.Rev)
	}
	if err := plan.Equal(got, want); err != nil {
		t.Fatalf("follower plan diverges from primary: %v", err)
	}

	if _, err := follower.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	promoted := livePlanOf(follower)
	if err := plan.Equal(promoted, want); err != nil {
		t.Fatalf("promotion lost the replicated plan: %v", err)
	}
	if err := follower.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("recovery equivalence on promoted RM with a plan: %v", err)
	}
}

// TestAdHocGateAdmitsAgainstLeftover: the lock-free gate rejects
// everything before the first plan revision, admits demand that fits the
// plan's leftover afterwards, rejects demand that cannot fit, and does
// not double-book capacity an earlier admission already holds.
func TestAdHocGateAdmitsAgainstLeftover(t *testing.T) {
	dir := t.TempDir()
	rm, _ := newStreamingRM(t, dir, true, true)
	register(t, rm, "n1", 8, 16384)

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
	if err := rm.Tick(time.Now()); err != nil {
		t.Fatalf("Tick: %v", err)
	}
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
	if err := rm.Tick(time.Now()); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if resp := submit("overflow", 6, 10*64, 1, 2048); resp.Accepted {
		t.Fatal("rebase forgot the admitted jobs' remaining demand and double-booked the leftover")
	}
}

// TestAdHocDrainFoldsIntoScheduler: when a plan rebase retires a gate
// epoch that carried admissions, the drained per-slot consumption must
// reach the scheduler through sched.AdHocFolder so the next plan reserves
// it instead of double-booking capacity the gate already promised away.
func TestAdHocDrainFoldsIntoScheduler(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), Policy: store.SyncAlways})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	cfg := core.DefaultConfig()
	cfg.StreamPlans = true
	ft := core.New(cfg)
	rm, err := New(Config{SlotDur: slotDur, Scheduler: ft, Store: st, AdHocGate: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	register(t, rm, "n1", 8, 16384)

	// First tick publishes the empty plan revision the gate admits against.
	if err := rm.Tick(time.Now()); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	resp, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "burst", Tasks: 4, TaskDurSec: 10, DemandVCores: 2, DemandMemMB: 1024,
	}})
	if err != nil || !resp.Accepted {
		t.Fatalf("SubmitAdHoc: accepted=%v err=%v", resp.Accepted, err)
	}

	// A deadline workflow forces a new plan revision; the rebase that
	// follows retires the gate epoch holding the admission, and its drain
	// must be folded into the scheduler.
	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	runSlots(t, rm, "n1", 2, nil)

	if got := ft.Stats().AdHocFolds; got < 1 {
		t.Fatalf("AdHocFolds = %d, want >= 1: the gate's drain never reached the scheduler", got)
	}
}

// TestRecoveredAdHocReseedsReservations: the scheduler's reservations are
// not durable, and the first gate epoch of a process retires nothing — so
// on a restarted RM the first rebase must re-seed them from the volume
// the recovered ad-hoc jobs still hold. Without that the planner spreads
// deadline work over slots the gate promised away before the crash.
func TestRecoveredAdHocReseedsReservations(t *testing.T) {
	dir := t.TempDir()
	rm1, _ := newStreamingRM(t, dir, false, true)
	register(t, rm1, "n1", 8, 32768)
	if err := rm1.Tick(time.Now()); err != nil { // publishes the empty plan the gate admits against
		t.Fatalf("Tick: %v", err)
	}
	// 6 of the 8 cores for 10 slots.
	resp, err := rm1.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "held", Tasks: 6, TaskDurSec: 100, DemandVCores: 1, DemandMemMB: 1024,
	}})
	if err != nil || !resp.Accepted {
		t.Fatalf("SubmitAdHoc: accepted=%v err=%v", resp.Accepted, err)
	}
	// Crash: rm1 and its store are abandoned un-closed.

	rm2, _ := newStreamingRM(t, dir, true, true)
	ft := rm2.cfg.Scheduler.(*core.FlowTime)
	register(t, rm2, "n1", 8, 32768)
	// 80 core-slots due in 30 slots: spread flat it would put ~3 cores on
	// every slot, the held ones included.
	if _, err := rm2.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: trace.WorkflowRecord{
		ID: "wf-1", DeadlineSec: 300,
		Jobs: []trace.JobRecord{{Name: "a", Tasks: 8, TaskDurSec: 100, DemandVCores: 1, DemandMemMB: 1024}},
	}}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	pending := runSlots(t, rm2, "n1", 1, nil)
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
		pending = runSlots(t, rm2, "n1", 1, pending)
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

// TestGateRequiresStreamingScheduler: the gate without a plan-streaming
// scheduler is a configuration error, not a silent always-reject queue.
func TestGateRequiresStreamingScheduler(t *testing.T) {
	_, err := New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO(), AdHocGate: true})
	if err == nil || !strings.Contains(err.Error(), "plan-streaming") {
		t.Fatalf("New with gate on FIFO = %v, want plan-streaming error", err)
	}
}
