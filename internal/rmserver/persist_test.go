package rmserver

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/store"
)

func submitBoth(t *testing.T, rm *Server) {
	t.Helper()
	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	submitAdHoc(t, rm, "a1", 2, 20)
}

// TestCrashRecoveryResumesWork kills an RM mid-workload (the store is
// abandoned un-closed, like SIGKILL) and verifies the successor recovers
// the jobs, requeues the orphaned leases, and runs everything to
// completion with exactly the required volume delivered — no lost and no
// double-counted work.
func TestCrashRecoveryResumesWork(t *testing.T) {
	dir := t.TempDir()

	c1 := newCluster(t, Config{}, &durable{dir: dir, abandon: true})
	rm1 := c1.rm
	c1.register("n1", 8, 32768)
	submitBoth(t, rm1)
	// A few slots in, with confirms applied and leases still in flight.
	c1.run(3)
	pending := c1.held["n1"]
	if len(pending) == 0 {
		t.Fatal("expected in-flight leases at crash point")
	}
	crashSlot := rm1.Slot()
	// Crash: rm1 and its store are simply abandoned.

	c2 := newCluster(t, Config{}, &durable{dir: dir})
	rm2 := c2.rm
	rec := rm2.Recovery()
	if rec == nil || !rec.Performed {
		t.Fatal("no recovery status after restart")
	}
	if rec.RecordsReplayed == 0 {
		t.Fatalf("recovery replayed 0 records: %+v", rec)
	}
	if rec.OrphanLeasesRequeued != len(pending) {
		t.Errorf("orphan leases requeued = %d, want %d", rec.OrphanLeasesRequeued, len(pending))
	}
	if rm2.Slot() != crashSlot {
		t.Errorf("recovered slot = %d, want %d", rm2.Slot(), crashSlot)
	}
	st := rm2.Status()
	if len(st.Jobs) != 3 { // 2 workflow jobs + 1 ad-hoc
		t.Fatalf("recovered %d jobs, want 3", len(st.Jobs))
	}
	if st.OutstandingLeases != 0 {
		t.Errorf("outstanding leases after recovery = %d, want 0 (all orphans requeued)", st.OutstandingLeases)
	}

	// The dead node's confirms must be rejected as stale, and the
	// re-registered node must carry the remaining work to completion.
	if _, err := rm2.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: pending}, c2.now); err == nil {
		t.Error("heartbeat from unregistered node accepted after recovery")
	}
	c2.register("n1", 8, 32768)
	final := c2.runToCompletion(200)
	for _, j := range final.Jobs {
		if j.State != "completed" {
			t.Errorf("job %s not completed after recovery: %s", j.ID, j.State)
		}
		if j.Delivered != j.Total {
			t.Errorf("job %s delivered %+v, want exactly %+v", j.ID, j.Delivered, j.Total)
		}
	}
}

// normalizeStatus zeroes the fields that legitimately differ between two
// recoveries of the same directory (timings and per-process I/O
// counters), leaving all scheduling state for comparison.
func normalizeStatus(st rmproto.StatusResponse) rmproto.StatusResponse {
	if st.Recovery != nil {
		r := *st.Recovery
		r.Micros = 0
		st.Recovery = &r
	}
	st.Durability = nil
	return st
}

// TestRecoveryIdempotent recovers the same state directory twice and
// requires bit-identical status: replaying the same WAL twice must
// converge to the same state, not double-apply anything.
func TestRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	c1 := newCluster(t, Config{}, &durable{dir: dir, abandon: true})
	c1.register("n1", 8, 32768)
	submitBoth(t, c1.rm)
	c1.run(4)

	cA := newCluster(t, Config{}, &durable{dir: dir, abandon: true})
	a, _ := json.Marshal(normalizeStatus(cA.rm.Status()))
	cA.store.Close()

	rmB := newCluster(t, Config{}, &durable{dir: dir}).rm
	b, _ := json.Marshal(normalizeStatus(rmB.Status()))
	if string(a) != string(b) {
		t.Errorf("two recoveries of the same directory diverge:\n%s\n%s", a, b)
	}
}

// TestRecoveryFromSnapshotPlusTail snapshots mid-run, keeps mutating,
// crashes, and verifies recovery restores snapshot state plus the WAL
// tail written after it.
func TestRecoveryFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	c1 := newCluster(t, Config{}, &durable{dir: dir, abandon: true})
	rm1 := c1.rm
	c1.register("n1", 8, 32768)
	submitBoth(t, rm1)
	c1.run(2)
	if err := rm1.WriteSnapshot(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snapSlot := rm1.Slot()
	c1.run(2)
	wantSlot := rm1.Slot()

	rm2 := newCluster(t, Config{}, &durable{dir: dir}).rm
	rec := rm2.Recovery()
	if !rec.FromSnapshot {
		t.Fatalf("recovery did not use the snapshot: %+v", rec)
	}
	if rec.SnapshotSlot != snapSlot {
		t.Errorf("snapshot slot = %d, want %d", rec.SnapshotSlot, snapSlot)
	}
	if rec.RecordsReplayed == 0 {
		t.Error("no WAL tail replayed on top of the snapshot")
	}
	if rm2.Slot() != wantSlot {
		t.Errorf("recovered slot = %d, want %d", rm2.Slot(), wantSlot)
	}
}

// TestRecoveryTruncatesTornTail appends garbage to the WAL (a torn write
// from a crash mid-append) and verifies startup truncates it instead of
// failing, recovering everything before the tear.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	c1 := newCluster(t, Config{}, &durable{dir: dir, abandon: true})
	c1.register("n1", 8, 32768)
	submitBoth(t, c1.rm)
	c1.run(3)
	wantSlot := c1.rm.Slot()

	walFile := ""
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:4] == "wal-" {
			walFile = dir + "/" + e.Name()
		}
	}
	if walFile == "" {
		t.Fatal("no WAL file found")
	}
	f, err := os.OpenFile(walFile, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0x00}) // torn partial frame
	f.Close()

	rm2 := newCluster(t, Config{}, &durable{dir: dir}).rm
	rec := rm2.Recovery()
	if !rec.WALTruncated || rec.TruncatedBytes != 3 {
		t.Errorf("torn tail not truncated: %+v", rec)
	}
	if rm2.Slot() != wantSlot {
		t.Errorf("recovered slot = %d, want %d (torn tail must not cost valid records)", rm2.Slot(), wantSlot)
	}
	if len(rm2.Status().Jobs) != 3 {
		t.Errorf("recovered %d jobs, want 3", len(rm2.Status().Jobs))
	}
}

// TestDrainWritesFinalSnapshot verifies a completed drain rotates the
// WAL behind a final snapshot, so a clean shutdown restarts with zero
// records to replay.
func TestDrainWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	c1 := newCluster(t, Config{}, &durable{dir: dir, abandon: true})
	rm1 := c1.rm
	c1.register("n1", 8, 32768)
	submitBoth(t, rm1)
	c1.run(3)
	pending, now := c1.held["n1"], c1.now
	go func() {
		// Confirm the stragglers so the drain can complete: a loop of its
		// own, on a goroutine, that ends at the first refusal.
		for len(pending) > 0 {
			now = now.Add(slotDur)
			rm1.Tick(now)
			resp, err := rm1.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: pending}, now)
			if err != nil {
				return
			}
			pending = pending[:0]
			for _, q := range resp.Launch {
				pending = append(pending, q.ID)
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp := rm1.Drain(ctx)
	if !resp.Complete {
		t.Fatalf("drain did not complete: %+v", resp)
	}
	c1.store.Close()

	rm2 := newCluster(t, Config{}, &durable{dir: dir}).rm
	rec := rm2.Recovery()
	if !rec.FromSnapshot {
		t.Fatalf("no final snapshot after drain: %+v", rec)
	}
	if rec.RecordsReplayed != 0 {
		t.Errorf("replayed %d records after a clean drain, want 0", rec.RecordsReplayed)
	}
	if rm2.Status().Draining {
		t.Error("drain flag survived restart; draining is per-process and must not persist")
	}
}

// TestRecoverySlotMismatchRejected: a state directory written under one
// slot duration must refuse to load under another, loudly.
func TestRecoverySlotMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	c1 := newCluster(t, Config{}, &durable{dir: dir, abandon: true})
	c1.register("n1", 8, 32768)
	submitBoth(t, c1.rm)
	c1.step()
	if err := c1.rm.WriteSnapshot(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	c1.store.Close()

	st2, err := store.Open(store.Options{Dir: dir, Policy: store.SyncAlways})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st2.Close()
	_, err = New(Config{SlotDur: slotDur * 2, Scheduler: sched.NewFIFO(), Store: st2})
	if err == nil {
		t.Fatal("snapshot written under a different slot duration was accepted")
	}
}

// TestEmptyDirRecovery: starting from a fresh directory performs a
// trivial recovery and reports it.
func TestEmptyDirRecovery(t *testing.T) {
	rm := newCluster(t, Config{}, &durable{}).rm
	rec := rm.Recovery()
	if rec == nil || !rec.Performed || rec.FromSnapshot || rec.RecordsReplayed != 0 {
		t.Errorf("empty-dir recovery = %+v, want trivial performed recovery", rec)
	}
	if st := rm.Status(); st.Durability == nil || st.Durability.FsyncPolicy != "always" {
		t.Errorf("status durability = %+v, want fsync policy reported", rm.Status().Durability)
	}
}

// TestFaultCountersArePerProcess: the fault counters are each process's
// telemetry, not journaled state. A primary counts the best-effort
// admission, the stale confirm, the expired node and the requeues it
// decided; a process recovered from its state directory counts only the
// orphan leases it requeued itself; a follower that ingested the same
// stream — a snapshot and the records behind it — counts nothing until it
// is promoted, and then exactly the orphans it requeued.
func TestFaultCountersArePerProcess(t *testing.T) {
	dir := t.TempDir()
	c := newCluster(t, Config{NodeExpiry: time.Minute}, &durable{dir: dir, abandon: true}) // abandoned, like a SIGKILL
	rm := c.rm
	c.register("n1", 2, 8*1024)
	c.register("n2", 8, 8*1024)
	if resp, err := rm.SubmitWorkflow(infeasibleWorkflow()); err != nil || !resp.BestEffort {
		t.Fatalf("SubmitWorkflow = %+v, %v; want a best-effort admission", resp, err)
	}
	submitAdHoc(t, rm, "a1", 4, 20)
	c.tick()
	// n1 confirms a quantum nobody issued and takes its launches; n2 falls
	// silent and expires at the next tick, its leases requeued.
	c.now = c.now.Add(2 * time.Minute)
	c.beat("n1", []string{"q-999"})
	if err := rm.WriteSnapshot(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	c.tick()
	primary := rm.Status()
	if f := primary.Faults; f.BestEffortAdmissions != 1 || f.StaleConfirms != 1 || f.ExpiredNodes != 1 || f.RequeuedQuanta == 0 ||
		f.SchedulerPanics != 0 {
		t.Fatalf("primary counted %+v; want 1 best-effort admission, 1 stale confirm, 1 expired node and its requeues", f)
	}
	orphans := primary.OutstandingLeases
	if orphans == 0 {
		t.Fatal("no lease outstanding at the crash: recovery requeues nothing")
	}

	follower := newCluster(t, Config{Follower: true}, &durable{}).rm
	pumpRepl(t, rm, follower)
	if f := follower.Status().Faults; f != (rmproto.FaultCounters{}) {
		t.Errorf("follower counted %+v ingesting the stream, want nothing", f)
	}

	recovered := newCluster(t, Config{}, &durable{dir: dir}).rm
	if got := recovered.Recovery().OrphanLeasesRequeued; got != orphans {
		t.Fatalf("recovery requeued %d orphan leases, want %d", got, orphans)
	}
	if f, want := recovered.Status().Faults, (rmproto.FaultCounters{RequeuedQuanta: int64(orphans)}); f != want {
		t.Errorf("recovered process counted %+v, want %+v: its own orphan requeues only", f, want)
	}

	promo, err := follower.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if promo.OrphanLeasesRequeued != orphans {
		t.Fatalf("promotion requeued %d orphan leases, want %d", promo.OrphanLeasesRequeued, orphans)
	}
	if f, want := follower.Status().Faults, (rmproto.FaultCounters{RequeuedQuanta: int64(orphans)}); f != want {
		t.Errorf("promoted follower counted %+v, want %+v: its own orphan requeues only", f, want)
	}
}
