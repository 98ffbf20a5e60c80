package rmserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/rmproto"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// Heartbeat confirms, hand-offs and a tick's own records are journaled but
// not fsynced by the call that writes them; they become durable with the
// next commit (see "Durability ordering" in persist.go). These tests hold
// the two halves of that bargain: what a machine crash inside the window
// costs, and that the fsync count it buys does not creep back up.

func deliveredByJob(st rmproto.StatusResponse) map[string]rmproto.Resources {
	m := make(map[string]rmproto.Resources, len(st.Jobs))
	for _, j := range st.Jobs {
		m[j.ID] = j.Delivered
	}
	return m
}

func sameDelivered(t *testing.T, what string, got, want rmproto.StatusResponse) {
	t.Helper()
	if got.Slot != want.Slot {
		t.Errorf("%s: slot %d, want %d", what, got.Slot, want.Slot)
	}
	g, w := deliveredByJob(got), deliveredByJob(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d jobs, want %d", what, len(g), len(w))
	}
	for id, wd := range w {
		if g[id] != wd {
			t.Errorf("%s: job %s delivered %+v, want %+v", what, id, g[id], wd)
		}
	}
}

// TestMachineCrashTakesBackOnlyUnsyncedConfirms is the test that licenses
// acknowledging confirms before they are durable. The SIGKILL suites
// cannot see this window (a killed process leaves its page cache
// behind); FaultFS.Crash drops every unsynced byte like a power loss.
// Crashing between a confirming heartbeat and the next tick must recover
// exactly the state of the last tick commit, with the lost confirms'
// leases requeued like any other in-flight lease, their old quantum IDs
// dead, and the workload still completing with every job delivered
// exactly once. Crashing after the tick keeps the confirms.
func TestMachineCrashTakesBackOnlyUnsyncedConfirms(t *testing.T) {
	for _, tc := range []struct {
		name          string
		tickThenCrash bool
	}{
		{"crash before the tick commit", false},
		{"crash after the tick commit", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rm1, ffs := newFaultyRM(t, dir)
			register(t, rm1, "n1", 8, 32768)
			submitBoth(t, rm1)
			confirmed := runSlots(t, rm1, "n1", 1, nil)
			if err := rm1.Tick(time.Now()); err != nil {
				t.Fatalf("Tick: %v", err)
			}
			atTick := rm1.Status() // everything up to here is on the disk
			resp, err := rm1.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: confirmed}, time.Now())
			if err != nil {
				t.Fatalf("Heartbeat: %v", err)
			}
			if len(confirmed) == 0 || len(resp.Launch) == 0 {
				t.Fatalf("heartbeat confirmed %d and launched %d quanta, want both > 0", len(confirmed), len(resp.Launch))
			}
			acked := rm1.Status()
			if got := acked.Durability.WALUnsyncedRecords; got != 1 {
				t.Errorf("wal_unsynced_records after the heartbeat = %d, want 1 (its confirm record)", got)
			}
			if ffs.UnsyncedBytes() == 0 {
				t.Fatal("the confirming heartbeat left nothing unsynced; the window under test is closed")
			}

			want, orphans := atTick, len(confirmed)+len(resp.Launch)
			if tc.tickThenCrash {
				if err := rm1.Tick(time.Now()); err != nil {
					t.Fatalf("Tick: %v", err)
				}
				want = rm1.Status()
				orphans = want.OutstandingLeases
			}
			ffs.Crash()

			// The machine comes back: a fresh process on the real files.
			rm2, _ := newDurableRM(t, dir, true)
			rec := rm2.Recovery()
			if rec == nil || rec.OrphanLeasesRequeued != orphans {
				t.Fatalf("recovery = %+v, want %d orphan leases requeued", rec, orphans)
			}
			sameDelivered(t, "recovered state", rm2.Status(), want)
			if tc.tickThenCrash {
				acked.Slot = want.Slot
				sameDelivered(t, "confirms committed by the tick", rm2.Status(), acked)
			}

			// The agent's view after the crash: the RM does not know it, it
			// re-registers, and whatever it still reports for the old quanta is
			// stale — counted, never delivered twice.
			register(t, rm2, "n1", 8, 32768)
			before := rm2.Status()
			if _, err := rm2.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: confirmed}, time.Now()); err != nil {
				t.Fatalf("Heartbeat with pre-crash quanta: %v", err)
			}
			after := rm2.Status()
			if got := after.Faults.StaleConfirms - before.Faults.StaleConfirms; got != int64(len(confirmed)) {
				t.Errorf("re-sent confirms bumped stale_confirms by %d, want %d", got, len(confirmed))
			}
			sameDelivered(t, "after re-sent confirms", after, before)

			final := driveToCompletion(t, rm2, []string{"n1"}, 200)
			for _, j := range final.Jobs {
				if j.State != "completed" || j.Delivered != j.Total {
					t.Errorf("job %s: %s, delivered %+v of %+v; want completed with exactly the total", j.ID, j.State, j.Delivered, j.Total)
				}
			}
			verifyEquiv(t, rm2, "after the post-crash run")
		})
	}
}

// TestMachineCrashTakesBackAnUnsyncedHandOff licenses the second thing a
// heartbeat lets out before it is durable: the leases it dispatches from
// the tick's offers. n1 confirms a, the reply carries b's quantum, and the
// machine dies before any commit. The grant record sits behind the confirm
// record in the log, so it can never survive without it; here neither
// does. The recovered RM is the last tick commit — a still out, b not
// started — and its quantum counter is back where the lost ID is free
// again: the tick that re-grants a reissues it, on another node. The old
// holder can do no harm with it: the recovered RM knows no node, so its
// heartbeat is refused whole (the agent then drops its lease set and
// re-registers), and a confirm of that ID from a node that does not hold
// the reissued lease is stale. Crashing after the next tick keeps both
// records: a stays confirmed, b's lease is recovered in flight and
// requeued, its ID is never used again.
func TestMachineCrashTakesBackAnUnsyncedHandOff(t *testing.T) {
	open := func(t *testing.T, fs store.FS, dir string, closeStore bool) *Server {
		t.Helper()
		st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncAlways, FS: fs})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		if closeStore {
			t.Cleanup(func() { st.Close() })
		}
		rm, err := New(Config{SlotDur: slotDur, Scheduler: core.New(core.DefaultConfig()), Store: st})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return rm
	}
	for _, tc := range []struct {
		name          string
		tickThenCrash bool
	}{
		{"crash before the tick commit", false},
		{"crash after the tick commit", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := store.NewFaultFS()
			rm1 := open(t, ffs, dir, false)
			register(t, rm1, "n1", 4, 8192)
			register(t, rm1, "n2", 4, 8192)
			if _, err := rm1.SubmitWorkflow(twoStage()); err != nil {
				t.Fatalf("SubmitWorkflow: %v", err)
			}
			tick(t, rm1)
			a := quantumIDs(beat(t, rm1, "n1", nil))
			tick(t, rm1)
			atTick := rm1.Status() // everything up to here is on the disk
			b := beat(t, rm1, "n1", a)
			if len(a) != 1 || len(b) != 1 || b[0].JobID != "wf/b#1" {
				t.Fatalf("n1 confirmed %v and was handed %v, want a's quantum in and b's out", a, b)
			}
			lost := b[0].ID
			if got := rm1.Status().Durability.WALUnsyncedRecords; got != 2 {
				t.Errorf("wal_unsynced_records after the heartbeat = %d, want 2 (its confirm and grant records)", got)
			}

			want, orphans := atTick, 1 // a's lease
			if tc.tickThenCrash {
				tick(t, rm1)
				want = rm1.Status()
				orphans = 1 // b's
			}
			ffs.Crash()

			rm2 := open(t, store.OSFS, dir, true)
			rec := rm2.Recovery()
			if rec == nil || rec.OrphanLeasesRequeued != orphans {
				t.Fatalf("recovery = %+v, want %d orphan lease requeued", rec, orphans)
			}
			sameDelivered(t, "recovered state", rm2.Status(), want)

			// The old holder speaks first and is refused whole.
			if _, err := rm2.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: []string{lost}}, time.Now()); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("old node's first heartbeat = %v, want ErrUnknownNode", err)
			}
			register(t, rm2, "n2", 4, 8192)
			tick(t, rm2)
			regranted := beat(t, rm2, "n2", nil)
			if tc.tickThenCrash {
				if len(regranted) != 1 || regranted[0].JobID != "wf/b#1" || regranted[0].ID == lost {
					t.Fatalf("after the crash n2 was handed %v, want b again under a new ID (not %s)", regranted, lost)
				}
			} else if len(regranted) != 1 || regranted[0].JobID != "wf/a#0" || regranted[0].ID != lost {
				t.Fatalf("after the crash n2 was handed %v, want a again, as the reissued %s", regranted, lost)
			}
			// The old holder again, the lost ID live once more in someone else's
			// hands: refused while unknown, stale once registered.
			if _, err := rm2.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: []string{lost}}, time.Now()); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("old node's heartbeat = %v, want ErrUnknownNode", err)
			}
			register(t, rm2, "n1", 4, 8192)
			before := rm2.Status()
			beat(t, rm2, "n1", []string{lost})
			after := rm2.Status()
			if got := after.Faults.StaleConfirms - before.Faults.StaleConfirms; got != 1 {
				t.Errorf("the lost ID confirmed by a node that does not hold it bumped stale_confirms by %d, want 1", got)
			}
			sameDelivered(t, "after the stale confirm", after, before)

			// n2 finishes what it holds; the rest of the run is ordinary.
			tick(t, rm2)
			beat(t, rm2, "n1", nil)
			beat(t, rm2, "n2", quantumIDs(regranted))
			final := driveToCompletion(t, rm2, []string{"n1", "n2"}, 50)
			for _, j := range final.Jobs {
				if j.State != "completed" || j.Delivered != j.Total {
					t.Errorf("job %s: %s, delivered %+v of %+v; want completed with exactly the total", j.ID, j.State, j.Delivered, j.Total)
				}
			}
			verifyEquiv(t, rm2, "after the post-crash run")
		})
	}
}

// submitSmall admits one small ad-hoc job, which commits every record
// journaled before it.
func submitSmall(t *testing.T, rm *Server, id string) {
	t.Helper()
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: id, Tasks: 2, TaskDurSec: 20, DemandVCores: 1, DemandMemMB: 512,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc(%s): %v", id, err)
	}
}

// TestMachineCrashTakesBackAnUnsyncedTick licenses the third thing that
// rides the next commit: a tick's own record. A submission commits
// everything before it, so the tick after it has nothing to wait for — it
// fsyncs nothing — and a heartbeat takes its quanta while its record is
// still in the page cache. The machine dies. The recovered RM is the
// submission's commit: the slot before the tick, the leases in flight at
// that commit requeued and the lost grants not among them, and a quantum
// counter that frees the lost IDs again — the next tick reissues them, on
// another node. The old holder is refused whole, then its reports are
// stale, and a reissued ID delivers nothing twice. One more submission
// after the heartbeat keeps the tick: its leases are recovered in flight
// and requeued, and their IDs are never used again.
func TestMachineCrashTakesBackAnUnsyncedTick(t *testing.T) {
	for _, tc := range []struct {
		name            string
		submitThenCrash bool
	}{
		{"crash before the next commit", false},
		{"crash after the next commit", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rm1, ffs := newFaultyRM(t, dir)
			register(t, rm1, "n1", 8, 32768)
			submitBoth(t, rm1)
			first := runSlots(t, rm1, "n1", 1, nil) // in flight on n1
			submitSmall(t, rm1, "late")
			committed := rm1.Status() // everything up to here is on the disk
			tick(t, rm1)
			ticked := rm1.Status()
			if got := ticked.Durability.Fsyncs - committed.Durability.Fsyncs; got != 0 {
				t.Errorf("the tick after a submission's commit cost %d fsyncs, want 0", got)
			}
			if got := ticked.Durability.WALUnsyncedRecords; got < 1 {
				t.Errorf("wal_unsynced_records after the tick = %d, want at least 1 (its own record)", got)
			}
			lost := quantumIDs(beat(t, rm1, "n1", nil))
			if len(first) == 0 || len(lost) == 0 {
				t.Fatalf("n1 holds %d quanta from before the commit and took %d from the tick, want both > 0", len(first), len(lost))
			}
			if committed.OutstandingLeases != len(first) {
				t.Fatalf("%d leases out at the commit, want n1's %d", committed.OutstandingLeases, len(first))
			}

			want := committed
			if tc.submitThenCrash {
				submitSmall(t, rm1, "later")
				want = rm1.Status()
			}
			ffs.Crash()

			rm2, _ := newDurableRM(t, dir, true)
			rec := rm2.Recovery()
			if rec == nil || rec.OrphanLeasesRequeued != want.OutstandingLeases {
				t.Fatalf("recovery = %+v, want the %d leases out at the last commit requeued", rec, want.OutstandingLeases)
			}
			sameDelivered(t, "recovered state", rm2.Status(), want)

			// The old holder speaks first and is refused whole.
			held := append(append([]string(nil), first...), lost...)
			if _, err := rm2.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: held}, time.Now()); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("old holder's first heartbeat = %v, want ErrUnknownNode", err)
			}
			register(t, rm2, "n2", 8, 32768)
			tick(t, rm2)
			regranted := quantumIDs(beat(t, rm2, "n2", nil))
			reissued := 0
			for _, id := range regranted {
				if slices.Contains(lost, id) {
					reissued++
				}
			}
			if tc.submitThenCrash && reissued != 0 {
				t.Fatalf("n2 was handed %v, which reuses IDs of the committed tick's %v", regranted, lost)
			} else if !tc.submitThenCrash && reissued == 0 {
				t.Fatalf("n2 was handed %v, want the lost IDs %v reissued", regranted, lost)
			}

			// Registered again, the old holder reports everything it held —
			// requeued, lost, some of it live once more on n2: all stale.
			register(t, rm2, "n1", 8, 32768)
			before := rm2.Status()
			beat(t, rm2, "n1", held)
			after := rm2.Status()
			if got := after.Faults.StaleConfirms - before.Faults.StaleConfirms; got != int64(len(held)) {
				t.Errorf("the old holder's %d reports bumped stale_confirms by %d, want all of them", len(held), got)
			}
			sameDelivered(t, "after the old holder's reports", after, before)

			// n2 finishes what it holds; the rest of the run is ordinary.
			tick(t, rm2)
			beat(t, rm2, "n1", nil)
			beat(t, rm2, "n2", regranted)
			final := driveToCompletion(t, rm2, []string{"n1", "n2"}, 200)
			if !allCompleted(final) {
				t.Fatalf("the run did not complete after the crash: %+v", final.Summary)
			}
			for _, j := range final.Jobs {
				if j.Delivered != j.Total {
					t.Errorf("job %s delivered %+v of %+v; want exactly the total", j.ID, j.Delivered, j.Total)
				}
			}
			verifyEquiv(t, rm2, "after the post-crash run")
		})
	}
}

// TestConfirmsCostOneFsyncPerSlot is the rot guard for the count the
// confirm path was changed to reach: with no submissions, K nodes
// confirming work on every heartbeat for S slots cost exactly S fsyncs —
// the ticks' — under the always policy; a GET /v1/status adds at most one
// (its barrier) and nothing when nothing is pending; /metrics never adds
// one, and shows the backlog waiting for the tick.
func TestConfirmsCostOneFsyncPerSlot(t *testing.T) {
	const nodes, slots = 4, 6
	rm, st := newDurableRM(t, t.TempDir(), true)
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
		register(t, rm, ids[i], 2, 4096)
	}
	for i := 0; i < 2*nodes; i++ { // two endless one-core jobs per node
		if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
			ID: fmt.Sprintf("busy-%d", i), Tasks: 1, TaskDurSec: 1 << 20, DemandVCores: 1, DemandMemMB: 512,
		}}); err != nil {
			t.Fatalf("SubmitAdHoc: %v", err)
		}
	}
	pending := make(map[string][]string, nodes)
	slot := func(wantConfirms bool) {
		t.Helper()
		if err := rm.Tick(time.Now()); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		for _, id := range ids {
			if wantConfirms && len(pending[id]) == 0 {
				t.Fatalf("node %s has nothing to confirm; the heartbeat under test would not journal", id)
			}
			resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: id, Completed: pending[id]}, time.Now())
			if err != nil {
				t.Fatalf("Heartbeat(%s): %v", id, err)
			}
			pending[id] = quantumIDs(resp.Launch)
		}
	}
	slot(false) // warm-up: every node now holds leases

	base := st.Stats().Fsyncs
	for i := 0; i < slots; i++ {
		slot(true)
	}
	if got := st.Stats().Fsyncs - base; got != slots {
		t.Errorf("%d nodes x %d slots of confirming heartbeats cost %d fsyncs, want %d (one per tick)", nodes, slots, got, slots)
	}

	srv := httptest.NewServer(rm.Handler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
		}
		return string(body)
	}
	backlog := fmt.Sprintf("flowtime_rm_wal_unsynced_records %d\n", nodes)
	if body := get("/metrics"); !strings.Contains(body, backlog) {
		t.Errorf("/metrics does not show the %d confirm records awaiting the tick commit (%q)", nodes, strings.TrimSpace(backlog))
	}
	if got := st.Stats().Fsyncs - base; got != slots {
		t.Errorf("/metrics fsynced: %d fsyncs, want still %d", got, slots)
	}
	status, err := NewClient(srv.URL, nil).Status(context.Background())
	if err != nil {
		t.Fatalf("GET /v1/status: %v", err)
	}
	if got := status.Durability.WALUnsyncedRecords; got != nodes {
		t.Errorf("status wal_unsynced_records = %d, want %d", got, nodes)
	}
	if got := st.Stats(); got.Fsyncs-base != slots+1 || got.Unsynced != 0 {
		t.Errorf("after GET /v1/status: %d fsyncs and %d unsynced records, want %d and 0 (one barrier)", got.Fsyncs-base, got.Unsynced, slots+1)
	}
	get("/v1/status")
	if got := st.Stats().Fsyncs - base; got != slots+1 {
		t.Errorf("a second GET /v1/status with nothing pending fsynced: %d fsyncs, want %d", got, slots+1)
	}
}

// TestTicksFsyncOnlyWhatCameBefore is the rot guard for the tick's half of
// the count: a tick commits what was journaled before it, and its own
// record rides the next commit. K nodes confirming on every heartbeat for
// S slots, each slot opening with one admitted ad-hoc submission, cost
// exactly S fsyncs — the submissions'; the tick behind each has nothing
// left to sync. (A tick that committed its own record paid 2S here.) The
// same slots without the submission cost S, the ticks'. An idle tick right
// after a commit costs none and leaves its record unsynced; the next idle
// tick costs one, and that one covers both.
func TestTicksFsyncOnlyWhatCameBefore(t *testing.T) {
	const nodes, slots = 4, 6
	rm, st := newDurableRM(t, t.TempDir(), true)
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
		register(t, rm, ids[i], 2, 4096)
	}
	for i := 0; i < 2*nodes; i++ { // two endless one-core jobs per node
		if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
			ID: fmt.Sprintf("busy-%d", i), Tasks: 1, TaskDurSec: 1 << 20, DemandVCores: 1, DemandMemMB: 512,
		}}); err != nil {
			t.Fatalf("SubmitAdHoc: %v", err)
		}
	}
	pending := make(map[string][]string, nodes)
	slot := func(wantConfirms bool) {
		t.Helper()
		tick(t, rm)
		for _, id := range ids {
			if wantConfirms && len(pending[id]) == 0 {
				t.Fatalf("node %s has nothing to confirm; the heartbeat under test would not journal", id)
			}
			pending[id] = quantumIDs(beat(t, rm, id, pending[id]))
		}
	}
	slot(false) // warm-up: every node now holds leases

	base := st.Stats().Fsyncs
	for i := 0; i < slots; i++ {
		submitSmall(t, rm, fmt.Sprintf("extra-%d", i)) // queued behind the busy jobs
		slot(true)
	}
	if got := st.Stats().Fsyncs - base; got != slots {
		t.Errorf("%d nodes x %d confirming slots, each opened by a submission, cost %d fsyncs, want %d (one per submission, none per tick)", nodes, slots, got, slots)
	}

	base = st.Stats().Fsyncs
	for i := 0; i < slots; i++ {
		slot(true)
	}
	if got := st.Stats().Fsyncs - base; got != slots {
		t.Errorf("%d nodes x %d confirming slots without submissions cost %d fsyncs, want %d (one per tick)", nodes, slots, got, slots)
	}

	srv := httptest.NewServer(rm.Handler())
	defer srv.Close()
	unsynced := func() int64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		var n int64
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, "flowtime_rm_wal_unsynced_records "); ok {
				if _, err := fmt.Sscan(v, &n); err != nil {
					t.Fatalf("flowtime_rm_wal_unsynced_records %q: %v", v, err)
				}
				return n
			}
		}
		t.Fatal("/metrics has no flowtime_rm_wal_unsynced_records")
		return 0
	}
	submitSmall(t, rm, "idle") // the commit the idle tick follows
	base = st.Stats().Fsyncs
	tick(t, rm)
	if got := st.Stats().Fsyncs - base; got != 0 {
		t.Errorf("an idle tick right after a commit cost %d fsyncs, want 0", got)
	}
	if got := unsynced(); got < 1 {
		t.Errorf("flowtime_rm_wal_unsynced_records after the idle tick = %d, want at least 1 (its own record)", got)
	}
	tick(t, rm)
	if got := st.Stats(); got.Fsyncs-base != 1 || got.Unsynced != 0 {
		t.Errorf("the next idle tick left %d fsyncs and %d unsynced records, want 1 and 0 (one fsync for both ticks)", got.Fsyncs-base, got.Unsynced)
	}
}
