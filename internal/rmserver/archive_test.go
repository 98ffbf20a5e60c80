package rmserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// metricsScenario drives a small FlowTime RM into a state with jobs of
// every kind the /metrics job gauges tell apart: completed on time,
// completed late, running past its deadline, running, and pending.
func metricsScenario(t *testing.T) *Server {
	t.Helper()
	rm := newRM(t, core.New(core.DefaultConfig()))
	register(t, rm, "n1", 8, 16*1024)
	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	late := chainWorkflow(20) // two slots for 24 vcore-slots of chained work: missed
	late.ID = "wf-late"
	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: late}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	submitAdHoc(t, rm, "a-small", 1, 10)
	submitAdHoc(t, rm, "big", 40, 100)
	runSlots(t, rm, "n1", 6, nil)
	submitAdHoc(t, rm, "fresh", 1, 10)
	return rm
}

func scrapeMetrics(t *testing.T, rm *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	rm.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	return rec.Body.String()
}

// TestMetricsGolden pins /metrics line for line. The golden was taken on
// the commit before completed jobs left the job table, when the handler
// still counted the four job gauges by walking every job in Status().
func TestMetricsGolden(t *testing.T) {
	got := scrapeMetrics(t, metricsScenario(t))
	const golden = "testdata/metrics.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	// The retry-budget counter is process-wide: other tests move it.
	drop := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "flowtime_retry_budget_exhausted_total ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if drop(got) != drop(string(want)) {
		t.Errorf("/metrics drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	for _, gauge := range []string{
		"flowtime_rm_jobs_pending 2\n", "flowtime_rm_jobs_running 3\n",
		"flowtime_rm_jobs_completed 2\n", "flowtime_rm_jobs_missed 2\n",
	} {
		if !strings.Contains(got, gauge) {
			t.Errorf("/metrics lacks %q", gauge)
		}
	}
}

// referenceJobs is the walk the job-table split must stay equal to: every
// live job and every archived one, as one ID-sorted table.
func referenceJobs(rm *Server) []rmproto.JobStatus {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	all := append([]rmproto.JobStatus(nil), rm.done...)
	for _, j := range rm.jobs {
		all = append(all, rm.jobStatusLocked(j))
	}
	sort.Slice(all, func(a, b int) bool { return all[a].ID < all[b].ID })
	return all
}

func sameJobTable(t *testing.T, what string, got, want []rmproto.JobStatus) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s lists %d jobs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s job %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// checkArchiveInvariants asserts what makes the archive safe to read
// without the lock and to send once: entries are final (completed, fully
// delivered, nothing in flight, no lease left), they are exactly the
// jobs missing from the live table, and the archive only ever grows by
// appending — prev is what it held at the previous check.
func checkArchiveInvariants(t *testing.T, rm *Server, prev []rmproto.JobStatus) []rmproto.JobStatus {
	t.Helper()
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if len(rm.done) < len(prev) {
		t.Fatalf("archive shrank from %d to %d entries", len(prev), len(rm.done))
	}
	missed := 0
	for i, d := range rm.done {
		if i < len(prev) && d != prev[i] {
			t.Fatalf("archive entry %d rewritten: %+v, was %+v", i, d, prev[i])
		}
		if d.State != "completed" || d.Delivered != d.Total {
			t.Errorf("archived job %s is %s with %+v of %+v delivered", d.ID, d.State, d.Delivered, d.Total)
		}
		if _, live := rm.jobs[d.ID]; live {
			t.Errorf("job %s is archived and still in the live table", d.ID)
		}
		if d.Missed {
			missed++
		}
	}
	if missed != rm.doneMissed {
		t.Errorf("doneMissed = %d, the archive holds %d missed jobs", rm.doneMissed, missed)
	}
	for qid, l := range rm.leases {
		if l.job.done {
			t.Errorf("lease %s points at completed job %s", qid, l.job.id)
		}
	}
	for id, j := range rm.jobs {
		if j.done {
			t.Errorf("completed job %s is still in the live table", id)
		}
	}
	for id, ws := range rm.wfs {
		live := 0
		for _, j := range ws.jobs {
			if !j.done {
				live++
			} else if !j.inFlight.IsZero() {
				t.Errorf("completed job %s has %v in flight", j.id, j.inFlight)
			}
		}
		if live == 0 || live != ws.live {
			t.Errorf("workflow %s tracked with %d live jobs, counts %d", id, live, ws.live)
		}
	}
	return append([]rmproto.JobStatus(nil), rm.done...)
}

// driveMixed plays a seeded mixed run against *rmp for the given number of
// slots: chain workflows (every third with a deadline it cannot meet) and
// ad-hoc jobs arriving throughout, on three nodes. Workflows keep arriving
// to the last slots, not only through the first half: FlowTime runs ready
// deadline work on idle capacity, so on this mostly idle cluster a chain is
// done a few slots after it arrives instead of near its deadline, and only
// a run that keeps submitting still has a half-archived workflow at its
// late samples and live workflows beside finished ones at its end — what
// the two tests below are written to observe. The first-fit node
// restarts once (re-registers, so the RM requeues what it held) and later
// wedges long enough for its leases to expire. Every node heartbeats in
// every slot, so what one reply carries is what the node was handed for
// the slot, by the tick and by the other nodes' confirming heartbeats
// together: it must fit the node.
// each runs after every slot's heartbeats. It may restart the RM by
// storing another server in *rmp: the nodes register with that one
// before the next slot, holding nothing.
func driveMixed(t *testing.T, rmp **Server, seed int64, slots int, each func(slot int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodes := []string{"n1", "n2", "n3"}
	var rm *Server
	held := map[string][]string{}
	for slot := 0; slot < slots; slot++ {
		if rm != *rmp {
			rm = *rmp
			for _, n := range nodes {
				register(t, rm, n, 4, 8*1024)
			}
			clear(held)
		}
		if slot%4 == 0 {
			wf := chainWorkflow(int64(200 + rng.Intn(400)))
			if slot%12 == 8 {
				wf = chainWorkflow(20)
			}
			wf.ID = fmt.Sprintf("wf-%d", slot)
			if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: wf}); err != nil {
				t.Fatalf("SubmitWorkflow: %v", err)
			}
		}
		for i := rng.Intn(3); i > 0; i-- {
			submitAdHoc(t, rm, fmt.Sprintf("a%d-%d", slot, i), 1+rng.Intn(3), int64(10*(1+rng.Intn(2))))
		}
		if err := rm.Tick(time.Now()); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		for _, n := range nodes {
			if n == "n1" && slot == 7 {
				register(t, rm, n, 4, 8*1024) // restarted with empty hands
				held[n] = nil
			}
			wedged := n == "n1" && slot >= 10 && slot < 16
			req := rmproto.HeartbeatRequest{NodeID: n}
			if !wedged {
				req.Completed = held[n]
			}
			resp, err := rm.Heartbeat(req, time.Now())
			if err != nil {
				t.Fatalf("Heartbeat(%s): %v", n, err)
			}
			var handed rmproto.Resources
			for _, q := range resp.Launch {
				handed.VCores += q.Grant.VCores
				handed.MemoryMB += q.Grant.MemoryMB
			}
			if handed.VCores > 4 || handed.MemoryMB > 8*1024 {
				t.Fatalf("slot %d: node %s was handed %+v in one slot, over its capacity", slot, n, handed)
			}
			held[n] = nil
			if !wedged {
				held[n] = quantumIDs(resp.Launch)
			}
		}
		each(slot)
	}
}

func newMixedRM(t *testing.T, dir string) *Server {
	t.Helper()
	cfg := Config{SlotDur: slotDur, Scheduler: core.New(core.DefaultConfig()), LeaseExpiry: 3}
	if dir != "" {
		st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncNever})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	rm, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rm
}

// instanceOf reads the instance an RM names its cursors by.
func instanceOf(rm *Server) string {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.instance
}

// TestStatusViewsAgree is the differential that licenses the job-table
// split and the live cursor: through a mixed run with a node restart,
// lease expiries and a restart of the store-backed RM, at every slot the
// in-process Status, a long-lived client (which fetches only the
// archive's growth and the live entries that changed), a client that
// scrapes only every third slot and a brand-new client (which fetches all
// of it) report the same ID-sorted table, equal element by element to a
// reference walk of live jobs plus archive; Summary counts that table.
// The clients keep one URL across the restart, where the instance
// changes. A long-lived client of a follower, pumped every slot, crosses
// the snapshot installs that redraw its instance and reports the
// follower's reference walk.
func TestStatusViewsAgree(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		dir := t.TempDir()
		rm := newMixedRM(t, dir)
		front := &swapHandler{}
		front.serve(rm)
		ts := httptest.NewServer(front)
		follower, _ := newReplicaRM(t, t.TempDir(), "")
		fts := httptest.NewServer(follower.Handler())
		ctx := context.Background()
		long, sparse, replica := NewClient(ts.URL, ts.Client()), NewClient(ts.URL, ts.Client()), NewClient(fts.URL, fts.Client())
		view := func(what string, c *Client, want []rmproto.JobStatus, sum rmproto.JobSummary) {
			t.Helper()
			st, err := c.Status(ctx)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameJobTable(t, what, st.Jobs, want)
			if st.Done != nil || st.LiveChange != 0 || st.Summary != sum {
				t.Fatalf("%s: done block %v, live change %d, summary %+v, want folded and %+v", what, st.Done, st.LiveChange, st.Summary, sum)
			}
		}
		instances, followerInstances := map[string]bool{}, map[string]bool{}
		var archive []rmproto.JobStatus
		driveMixed(t, &rm, seed, 40, func(slot int) {
			switch slot {
			case 13, 29:
				// The follower is a generation behind until it installs this.
				if err := rm.WriteSnapshot(); err != nil {
					t.Fatalf("WriteSnapshot: %v", err)
				}
			case 21:
				rm.store.Close()
				rm = newMixedRM(t, dir)
				front.serve(rm)
			}
			at := fmt.Sprintf("seed %d slot %d", seed, slot)
			want := referenceJobs(rm)
			if !sort.SliceIsSorted(want, func(a, b int) bool { return want[a].ID < want[b].ID }) {
				t.Fatal("reference table not sorted")
			}
			inproc := rm.Status()
			sameJobTable(t, at+": Server.Status()", inproc.Jobs, want)
			view(at+": long-lived client", long, want, inproc.Summary)
			view(at+": new client", NewClient(ts.URL, ts.Client()), want, inproc.Summary)
			if slot%3 == 0 {
				view(at+": every-third-slot client", sparse, want, inproc.Summary)
			}
			pumpRepl(t, rm, follower)
			view(at+": follower's client", replica, referenceJobs(follower), follower.Status().Summary)
			instances[instanceOf(rm)] = true
			followerInstances[instanceOf(follower)] = true
			var sum rmproto.JobSummary
			for _, j := range want {
				switch j.State {
				case "pending":
					sum.Pending++
				case "running":
					sum.Running++
				case "completed":
					sum.Completed++
				}
				if j.Missed {
					sum.Missed++
				}
			}
			if inproc.Summary != sum {
				t.Fatalf("seed %d slot %d: summary %+v, the table counts %+v", seed, slot, inproc.Summary, sum)
			}
			archive = checkArchiveInvariants(t, rm, archive)
		})
		ts.Close()
		fts.Close()
		if len(instances) != 2 || len(followerInstances) < 3 {
			t.Errorf("seed %d: the clients saw %d primary and %d follower instances; want the restart's 2 and the installs' 3", seed, len(instances), len(followerInstances))
		}
		st := rm.Status()
		if st.Faults.RequeuedQuanta == 0 || st.Summary.Completed == 0 || st.Summary.Completed == len(st.Jobs) || st.Summary.Missed == 0 {
			t.Errorf("seed %d exercised too little: %d requeues, summary %+v of %d jobs", seed, st.Faults.RequeuedQuanta, st.Summary, len(st.Jobs))
		}
		rm.mu.Lock()
		if len(rm.doneWFs) <= len(rm.wfs) || len(rm.wfs) == 0 {
			t.Errorf("seed %d: %d workflows seen finishing jobs, %d still live; want some finished and some not", seed, len(rm.doneWFs), len(rm.wfs))
		}
		rm.mu.Unlock()
	}
}

// TestRecoveryEquivalenceAcrossArchive runs the durability oracle where
// the archive matters: mid-workflow (some jobs of a workflow archived,
// some live), on a store that is a version-2 snapshot plus a WAL suffix,
// on a follower fed by ShipLog (snapshot install included), and finally
// on the directory reopened by a fresh server.
func TestRecoveryEquivalenceAcrossArchive(t *testing.T) {
	dir := t.TempDir()
	rm := newMixedRM(t, dir)
	follower, _ := newReplicaRM(t, t.TempDir(), "")
	follower.cfg.LeaseExpiry = rm.cfg.LeaseExpiry
	var archive []rmproto.JobStatus
	driveMixed(t, &rm, 5, 30, func(slot int) {
		archive = checkArchiveInvariants(t, rm, archive)
		if slot == 9 || slot == 21 {
			if err := rm.WriteSnapshot(); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
		}
		if slot%3 != 0 {
			return
		}
		rm.mu.Lock()
		midWorkflow := false
		for _, ws := range rm.wfs {
			midWorkflow = midWorkflow || ws.live < len(ws.jobs)
		}
		rm.mu.Unlock()
		if slot == 27 && !midWorkflow {
			t.Fatal("no workflow is part archived, part live at slot 27")
		}
		verifyEquiv(t, rm, fmt.Sprintf("primary, slot %d", slot))
		pumpRepl(t, rm, follower)
		verifyEquiv(t, follower, fmt.Sprintf("follower, slot %d", slot))
		sameJobTable(t, fmt.Sprintf("follower at slot %d", slot), follower.Status().Jobs, rm.Status().Jobs)
		checkArchiveInvariants(t, follower, nil)
	})
	if len(archive) == 0 {
		t.Fatal("nothing was archived")
	}
	before := rm.Status()

	st2, err := store.Open(store.Options{Dir: dir, Policy: store.SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	rm2, err := New(Config{SlotDur: slotDur, Scheduler: core.New(core.DefaultConfig()), LeaseExpiry: 3, Store: st2})
	if err != nil {
		t.Fatalf("New on reopened dir: %v", err)
	}
	if rec := rm2.Recovery(); !rec.FromSnapshot || rec.RecordsReplayed == 0 {
		t.Fatalf("reopened from %+v, want a snapshot plus a WAL suffix", rec)
	}
	sameJobTable(t, "archive after reopen", rm2.done, archive)
	after := rm2.Status()
	if after.Slot != before.Slot || len(after.Jobs) != len(before.Jobs) {
		t.Fatalf("reopened at slot %d with %d jobs, want slot %d with %d", after.Slot, len(after.Jobs), before.Slot, len(before.Jobs))
	}
	for i, j := range after.Jobs {
		if b := before.Jobs[i]; j.ID != b.ID || j.Delivered != b.Delivered || j.CompletedSec != b.CompletedSec {
			t.Errorf("reopened job %+v, was %+v", j, b)
		}
	}
	verifyEquiv(t, rm2, "reopened")
}

// TestReplayTwiceAcrossCompletion replays a WAL tail in which an ad-hoc
// job and a whole workflow complete, twice over: the second pass must
// change nothing, although the IDs it re-submits are no longer in the
// live tables the appliers used to consult.
func TestReplayTwiceAcrossCompletion(t *testing.T) {
	dir := t.TempDir()
	rm1, _ := newDurableRM(t, dir, false)
	register(t, rm1, "n1", 16, 32*1024)
	submitBoth(t, rm1)
	if st := driveToCompletion(t, rm1, []string{"n1"}, 100); !allCompleted(st) {
		t.Fatal("run did not complete")
	}
	submitAdHoc(t, rm1, "tail", 1, 10)

	rm2, st2 := newDurableRM(t, dir, true)
	once := rm2.Status()
	rm2.mu.Lock()
	snapOnce, _ := rm2.snapshotLocked()
	for i, payload := range st2.RecoveredRecords() {
		if err := rm2.applyRecordLocked(payload); err != nil {
			t.Fatalf("second replay, record %d: %v", i, err)
		}
	}
	snapTwice, _ := rm2.snapshotLocked()
	live, wfs := len(rm2.jobs), len(rm2.wfs)
	rm2.mu.Unlock()
	if !bytes.Equal(snapOnce, snapTwice) {
		t.Errorf("replaying the tail twice changed the state:\nonce:  %s\ntwice: %s", snapOnce, snapTwice)
	}
	sameJobTable(t, "status after the second replay", rm2.Status().Jobs, once.Jobs)
	if live != 1 || wfs != 0 || once.Summary.Completed != 3 {
		t.Errorf("after replay: %d live jobs, %d live workflows, %d completed; want 1, 0, 3", live, wfs, once.Summary.Completed)
	}
}

// completedRM builds an RM (FIFO, no store) holding the given numbers of
// completed and live one-task ad-hoc jobs.
func completedRM(tb testing.TB, s sched.Scheduler, completed, live int) *Server {
	tb.Helper()
	rm, err := New(Config{SlotDur: slotDur, Scheduler: s})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	now := time.Now()
	if _, err := rm.RegisterNode(rmproto.RegisterNodeRequest{NodeID: "n1",
		Capacity: rmproto.Resources{VCores: int64(completed + 1), MemoryMB: int64(completed+1) * 512}}, now); err != nil {
		tb.Fatalf("RegisterNode: %v", err)
	}
	submit := func(prefix string, n int, durSec int64) {
		for i := 0; i < n; i++ {
			if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
				ID: fmt.Sprintf("%s%05d", prefix, i), Tasks: 1, TaskDurSec: durSec, DemandVCores: 1, DemandMemMB: 512,
			}}); err != nil {
				tb.Fatalf("SubmitAdHoc: %v", err)
			}
		}
	}
	submit("done-", completed, 10)
	var held []string
	for i := 0; i < 2; i++ {
		if err := rm.Tick(now); err != nil {
			tb.Fatalf("Tick: %v", err)
		}
		resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: held}, now)
		if err != nil {
			tb.Fatalf("Heartbeat: %v", err)
		}
		held = quantumIDs(resp.Launch)
	}
	submit("live-", live, 1<<20)
	if st := rm.Status(); st.Summary.Completed != completed || len(st.Jobs) != completed+live {
		tb.Fatalf("built %d completed of %d jobs, want %d of %d", st.Summary.Completed, len(st.Jobs), completed, completed+live)
	}
	return rm
}

// countingRT counts request body bytes (sent) and response body bytes as
// they cross the wire (wire), like the benchmark's transport, and as they
// decode (decoded): the same, or inflated when the body came gzipped.
type countingRT struct {
	rt                  http.RoundTripper
	sent, wire, decoded atomic.Int64
}

func (c *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		c.sent.Add(req.ContentLength)
	}
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.wire.Add(int64(len(body)))
	plain := body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if plain, err = gunzip(body); err != nil {
			return nil, err
		}
	}
	c.decoded.Add(int64(len(plain)))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// sizes returns the wire and decoded byte counts so far.
func (c *countingRT) sizes() (wire, decoded int64) { return c.wire.Load(), c.decoded.Load() }

// checkWireSizes asserts a client's first Status decoded to over 200 KB —
// the whole table — that crossed the wire in at most a third of that, and
// that its second decoded to under second bytes.
func checkWireSizes(t *testing.T, rt *countingRT, firstWire, firstDecoded int64, second int64) {
	t.Helper()
	wire, decoded := rt.sizes()
	if firstDecoded < 200<<10 || firstWire > firstDecoded/3 || decoded-firstDecoded >= second {
		t.Errorf("first Status decoded to %d bytes from %d on the wire, second to %d from %d; want over 200 KB in at most a third of it, then under %d",
			firstDecoded, firstWire, decoded-firstDecoded, wire-firstWire, second)
	}
}

// TestStatusWireIsLiveSized is the rot guard for the wire claim, as an
// exact byte count: with 2 000 completed and 20 live jobs, a client's
// second Status decodes to under 16 KB — the live list, not the history —
// and still reports all 2 020 jobs, as does a bare GET with no cursor. The
// first, the whole history, crosses the wire gzipped to a third or less.
func TestStatusWireIsLiveSized(t *testing.T) {
	rm := completedRM(t, sched.NewFIFO(), 2000, 20)
	ts := httptest.NewServer(rm.Handler())
	defer ts.Close()
	rt := &countingRT{rt: http.DefaultTransport}
	c := NewClient(ts.URL, &http.Client{Transport: rt})
	ctx := context.Background()
	first, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	firstWire, firstDecoded := rt.sizes()
	second, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if len(first.Jobs) != 2020 || len(second.Jobs) != 2020 {
		t.Errorf("Status lists %d then %d jobs, want 2020 both times", len(first.Jobs), len(second.Jobs))
	}
	checkWireSizes(t, rt, firstWire, firstDecoded, 16<<10)
	sameJobTable(t, "second Status", second.Jobs, rm.Status().Jobs)

	resp, err := http.Get(ts.URL + rmproto.PathStatus)
	if err != nil {
		t.Fatalf("bare GET: %v", err)
	}
	defer resp.Body.Close()
	var bare rmproto.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&bare); err != nil {
		t.Fatalf("bare GET: %v", err)
	}
	if bare.Done == nil || bare.Done.From != 0 || bare.Done.Total != 2000 || len(bare.Done.Jobs) != 2000 || len(bare.Jobs) != 20 {
		t.Fatalf("bare GET: %d live jobs, done block %+v", len(bare.Jobs), bare.Done)
	}
	if len(bare.Done.Instance) != 16 {
		t.Errorf("instance %q is not 16 characters", bare.Done.Instance)
	}
	bare.Fold(bare.Done.Jobs)
	sameJobTable(t, "bare GET, folded", bare.Jobs, second.Jobs)
}

// TestStatusWireIsChangeSized is TestStatusWireIsLiveSized's sibling for
// the live cursor, as an exact byte count: with 2 000 live pending jobs of
// which a tick grants 20 work between two Status calls, the second decodes
// to under 8 KB — the 20 changed entries, not the 2 000 — and its table is
// the server's; a bare GET still lists every live job. The first, the
// whole live list, crosses the wire gzipped to a third or less.
func TestStatusWireIsChangeSized(t *testing.T) {
	rm := completedRM(t, sched.NewFIFO(), 0, 2000)
	ts := httptest.NewServer(rm.Handler())
	defer ts.Close()
	rt := &countingRT{rt: http.DefaultTransport}
	c := NewClient(ts.URL, &http.Client{Transport: rt})
	ctx := context.Background()
	if _, err := c.Status(ctx); err != nil {
		t.Fatalf("Status: %v", err)
	}
	firstWire, firstDecoded := rt.sizes()
	register(t, rm, "n1", 20, 20*512) // room for 20 one-core jobs
	tick(t, rm)
	second, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	checkWireSizes(t, rt, firstWire, firstDecoded, 8<<10)
	want := rm.Status()
	sameJobTable(t, "second Status", second.Jobs, want.Jobs)
	if want.Summary.Running != 20 || want.Summary.Pending != 1980 {
		t.Fatalf("the tick left %+v, want 20 running and 1980 pending", want.Summary)
	}

	var bare rmproto.StatusResponse
	if code := getJSON(t, ts.URL+rmproto.PathStatus, &bare); code != http.StatusOK || len(bare.Jobs) != 2000 {
		t.Fatalf("bare GET: %d with %d live jobs, want 200 with 2000", code, len(bare.Jobs))
	}
	bare.Fold(bare.Done.Jobs)
	sameJobTable(t, "bare GET, folded", bare.Jobs, want.Jobs)
}

// countingSched records how many jobs the last Assign was shown.
type countingSched struct {
	sched.Scheduler
	lastJobs int
}

func (c *countingSched) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	c.lastJobs = len(ctx.Jobs)
	return c.Scheduler.Assign(ctx)
}

// TestTickWalksLiveJobsOnly is the rot guard for O(live): everything a
// tick, a drain report or the ad-hoc gate ranges over is the live table,
// and 2 000 completed jobs are not in it.
func TestTickWalksLiveJobsOnly(t *testing.T) {
	cs := &countingSched{Scheduler: sched.NewFIFO()}
	rm := completedRM(t, cs, 2000, 20)
	if err := rm.Tick(time.Now()); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	rm.mu.Lock()
	tracked, wfs, archived := len(rm.jobs), len(rm.wfs), len(rm.done)
	rm.mu.Unlock()
	if cs.lastJobs != 20 || tracked != 20 || wfs != 0 || archived != 2000 {
		t.Errorf("scheduler shown %d jobs, live table holds %d jobs and %d workflows, archive %d; want 20, 20, 0, 2000",
			cs.lastJobs, tracked, wfs, archived)
	}
	if got := len(rm.DrainStatus().UnfinishedJobs); got != 20 {
		t.Errorf("drain status lists %d unfinished jobs, want 20", got)
	}
}

// TestDuplicateWorkflowRejected is TestAdHocDuplicateRejected's twin: a
// workflow ID stays taken while the workflow runs, and after its last job
// completed and it left the live tables.
func TestDuplicateWorkflowRejected(t *testing.T) {
	rm := newRM(t, sched.NewEDF())
	register(t, rm, "n1", 16, 32*1024)
	req := rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}
	if _, err := rm.SubmitWorkflow(req); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	if _, err := rm.SubmitWorkflow(req); err == nil {
		t.Error("duplicate of a running workflow accepted")
	}
	if st := driveToCompletion(t, rm, []string{"n1"}, 100); !allCompleted(st) {
		t.Fatal("workflow did not complete")
	}
	rm.mu.Lock()
	left := len(rm.wfs) + len(rm.jobs)
	rm.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d entries left in the live tables after completion", left)
	}
	if _, err := rm.SubmitWorkflow(req); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate of a completed workflow: %v, want a duplicate error", err)
	}
}
