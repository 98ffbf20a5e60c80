package rmserver

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/trace"
)

// Heartbeat confirms are journaled but not fsynced by the heartbeat; they
// become durable with the next commit (see "Durability ordering" in
// persist.go). These tests hold the two halves of that bargain: what a
// machine crash inside the window costs, and that the fsync count it buys
// does not creep back up.

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
