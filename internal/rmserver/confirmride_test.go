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

	"flowtime/internal/core"
	"flowtime/internal/rmproto"
	"flowtime/internal/store"
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
			dir, ffs := t.TempDir(), store.NewFaultFS()
			c1 := newCluster(t, Config{}, &durable{dir: dir, fs: ffs, abandon: true})
			rm1 := c1.rm
			c1.register("n1", 8, 32768)
			submitBoth(t, rm1)
			c1.step()
			confirmed := c1.held["n1"]
			c1.tick()
			atTick := rm1.Status() // everything up to here is on the disk
			launched := c1.beat("n1", confirmed)
			if len(confirmed) == 0 || len(launched) == 0 {
				t.Fatalf("heartbeat confirmed %d and launched %d quanta, want both > 0", len(confirmed), len(launched))
			}
			acked := rm1.Status()
			if got := acked.Durability.WALUnsyncedRecords; got != 1 {
				t.Errorf("wal_unsynced_records after the heartbeat = %d, want 1 (its confirm record)", got)
			}
			if ffs.UnsyncedBytes() == 0 {
				t.Fatal("the confirming heartbeat left nothing unsynced; the window under test is closed")
			}

			want, orphans := atTick, len(confirmed)+len(launched)
			if tc.tickThenCrash {
				c1.tick()
				want = rm1.Status()
				orphans = want.OutstandingLeases
			}
			ffs.Crash()

			// The machine comes back: a fresh process on the real files.
			c2 := newCluster(t, Config{}, &durable{dir: dir})
			rm2 := c2.rm
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
			c2.register("n1", 8, 32768)
			before := rm2.Status()
			c2.beat("n1", confirmed)
			after := rm2.Status()
			if got := after.Faults.StaleConfirms - before.Faults.StaleConfirms; got != int64(len(confirmed)) {
				t.Errorf("re-sent confirms bumped stale_confirms by %d, want %d", got, len(confirmed))
			}
			sameDelivered(t, "after re-sent confirms", after, before)

			final := c2.runToCompletion(200)
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
	for _, tc := range []struct {
		name          string
		tickThenCrash bool
	}{
		{"crash before the tick commit", false},
		{"crash after the tick commit", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, ffs := t.TempDir(), store.NewFaultFS()
			c1 := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, &durable{dir: dir, fs: ffs, abandon: true})
			rm1 := c1.rm
			c1.register("n1", 4, 8192)
			c1.register("n2", 4, 8192)
			if _, err := rm1.SubmitWorkflow(twoStage()); err != nil {
				t.Fatalf("SubmitWorkflow: %v", err)
			}
			c1.tick()
			a := quantumIDs(c1.beat("n1", nil))
			c1.tick()
			atTick := rm1.Status() // everything up to here is on the disk
			b := c1.beat("n1", a)
			if len(a) != 1 || len(b) != 1 || b[0].JobID != "wf/b#1" {
				t.Fatalf("n1 confirmed %v and was handed %v, want a's quantum in and b's out", a, b)
			}
			lost := b[0].ID
			if got := rm1.Status().Durability.WALUnsyncedRecords; got != 2 {
				t.Errorf("wal_unsynced_records after the heartbeat = %d, want 2 (its confirm and grant records)", got)
			}

			want, orphans := atTick, 1 // a's lease
			if tc.tickThenCrash {
				c1.tick()
				want = rm1.Status()
				orphans = 1 // b's
			}
			ffs.Crash()

			c2 := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, &durable{dir: dir})
			rm2 := c2.rm
			rec := rm2.Recovery()
			if rec == nil || rec.OrphanLeasesRequeued != orphans {
				t.Fatalf("recovery = %+v, want %d orphan lease requeued", rec, orphans)
			}
			sameDelivered(t, "recovered state", rm2.Status(), want)

			// The old holder speaks first and is refused whole.
			if _, err := rm2.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: []string{lost}}, c2.now); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("old node's first heartbeat = %v, want ErrUnknownNode", err)
			}
			c2.register("n2", 4, 8192)
			c2.tick()
			regranted := c2.beat("n2", nil)
			if tc.tickThenCrash {
				if len(regranted) != 1 || regranted[0].JobID != "wf/b#1" || regranted[0].ID == lost {
					t.Fatalf("after the crash n2 was handed %v, want b again under a new ID (not %s)", regranted, lost)
				}
			} else if len(regranted) != 1 || regranted[0].JobID != "wf/a#0" || regranted[0].ID != lost {
				t.Fatalf("after the crash n2 was handed %v, want a again, as the reissued %s", regranted, lost)
			}
			// The old holder again, the lost ID live once more in someone else's
			// hands: refused while unknown, stale once registered.
			if _, err := rm2.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: []string{lost}}, c2.now); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("old node's heartbeat = %v, want ErrUnknownNode", err)
			}
			c2.register("n1", 4, 8192)
			before := rm2.Status()
			c2.beat("n1", []string{lost})
			after := rm2.Status()
			if got := after.Faults.StaleConfirms - before.Faults.StaleConfirms; got != 1 {
				t.Errorf("the lost ID confirmed by a node that does not hold it bumped stale_confirms by %d, want 1", got)
			}
			sameDelivered(t, "after the stale confirm", after, before)

			// n2 finishes what it holds; the rest of the run is ordinary.
			c2.tick()
			c2.beat("n1", nil)
			c2.beat("n2", quantumIDs(regranted))
			final := c2.runToCompletion(50)
			for _, j := range final.Jobs {
				if j.State != "completed" || j.Delivered != j.Total {
					t.Errorf("job %s: %s, delivered %+v of %+v; want completed with exactly the total", j.ID, j.State, j.Delivered, j.Total)
				}
			}
			verifyEquiv(t, rm2, "after the post-crash run")
		})
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
			dir, ffs := t.TempDir(), store.NewFaultFS()
			c1 := newCluster(t, Config{}, &durable{dir: dir, fs: ffs, abandon: true})
			rm1 := c1.rm
			c1.register("n1", 8, 32768)
			submitBoth(t, rm1)
			c1.step()
			first := c1.held["n1"] // in flight on n1
			submitAdHoc(t, rm1, "late", 2, 20)
			committed := rm1.Status() // everything up to here is on the disk
			c1.tick()
			ticked := rm1.Status()
			if got := ticked.Durability.Fsyncs - committed.Durability.Fsyncs; got != 0 {
				t.Errorf("the tick after a submission's commit cost %d fsyncs, want 0", got)
			}
			if got := ticked.Durability.WALUnsyncedRecords; got < 1 {
				t.Errorf("wal_unsynced_records after the tick = %d, want at least 1 (its own record)", got)
			}
			lost := quantumIDs(c1.beat("n1", nil))
			if len(first) == 0 || len(lost) == 0 {
				t.Fatalf("n1 holds %d quanta from before the commit and took %d from the tick, want both > 0", len(first), len(lost))
			}
			if committed.OutstandingLeases != len(first) {
				t.Fatalf("%d leases out at the commit, want n1's %d", committed.OutstandingLeases, len(first))
			}

			want := committed
			if tc.submitThenCrash {
				submitAdHoc(t, rm1, "later", 2, 20)
				want = rm1.Status()
			}
			ffs.Crash()

			c2 := newCluster(t, Config{}, &durable{dir: dir})
			rm2 := c2.rm
			rec := rm2.Recovery()
			if rec == nil || rec.OrphanLeasesRequeued != want.OutstandingLeases {
				t.Fatalf("recovery = %+v, want the %d leases out at the last commit requeued", rec, want.OutstandingLeases)
			}
			sameDelivered(t, "recovered state", rm2.Status(), want)

			// The old holder speaks first and is refused whole.
			held := append(append([]string(nil), first...), lost...)
			if _, err := rm2.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: held}, c2.now); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("old holder's first heartbeat = %v, want ErrUnknownNode", err)
			}
			c2.register("n2", 8, 32768)
			c2.tick()
			regranted := quantumIDs(c2.beat("n2", nil))
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
			c2.register("n1", 8, 32768)
			before := rm2.Status()
			c2.beat("n1", held)
			after := rm2.Status()
			if got := after.Faults.StaleConfirms - before.Faults.StaleConfirms; got != int64(len(held)) {
				t.Errorf("the old holder's %d reports bumped stale_confirms by %d, want all of them", len(held), got)
			}
			sameDelivered(t, "after the old holder's reports", after, before)

			// n2 finishes what it holds; the rest of the run is ordinary.
			c2.tick()
			c2.beat("n1", nil)
			c2.beat("n2", regranted)
			final := c2.runToCompletion(200)
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
	c := newCluster(t, Config{}, &durable{})
	rm, st := c.rm, c.store
	for i := 0; i < nodes; i++ {
		c.register(fmt.Sprintf("n%d", i), 2, 4096)
	}
	for i := 0; i < 2*nodes; i++ { // two endless one-core jobs per node
		submitAdHoc(t, rm, fmt.Sprintf("busy-%d", i), 1, 1<<20)
	}
	slot := func(wantConfirms bool) {
		t.Helper()
		for _, id := range c.nodes {
			if wantConfirms && len(c.held[id]) == 0 {
				t.Fatalf("node %s has nothing to confirm; the heartbeat under test would not journal", id)
			}
		}
		c.step()
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
	c := newCluster(t, Config{}, &durable{})
	rm, st := c.rm, c.store
	for i := 0; i < nodes; i++ {
		c.register(fmt.Sprintf("n%d", i), 2, 4096)
	}
	for i := 0; i < 2*nodes; i++ { // two endless one-core jobs per node
		submitAdHoc(t, rm, fmt.Sprintf("busy-%d", i), 1, 1<<20)
	}
	slot := func(wantConfirms bool) {
		t.Helper()
		for _, id := range c.nodes {
			if wantConfirms && len(c.held[id]) == 0 {
				t.Fatalf("node %s has nothing to confirm; the heartbeat under test would not journal", id)
			}
		}
		c.step()
	}
	slot(false) // warm-up: every node now holds leases

	base := st.Stats().Fsyncs
	for i := 0; i < slots; i++ {
		submitAdHoc(t, rm, fmt.Sprintf("extra-%d", i), 2, 20) // queued behind the busy jobs
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
	submitAdHoc(t, rm, "idle", 2, 20) // the commit the idle tick follows
	base = st.Stats().Fsyncs
	c.tick()
	if got := st.Stats().Fsyncs - base; got != 0 {
		t.Errorf("an idle tick right after a commit cost %d fsyncs, want 0", got)
	}
	if got := unsynced(); got < 1 {
		t.Errorf("flowtime_rm_wal_unsynced_records after the idle tick = %d, want at least 1 (its own record)", got)
	}
	c.tick()
	if got := st.Stats(); got.Fsyncs-base != 1 || got.Unsynced != 0 {
		t.Errorf("the next idle tick left %d fsyncs and %d unsynced records, want 1 and 0 (one fsync for both ticks)", got.Fsyncs-base, got.Unsynced)
	}
}
