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
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

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
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
	rm := c.rm
	c.register("n1", 8, 16*1024)
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
	c.run(6)
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
	if got != string(want) {
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
	archive, _ := rm.st.Done()
	all := append([]rmproto.JobStatus(nil), archive...)
	for _, j := range rm.st.Jobs() {
		all = append(all, rm.st.JobStatus(j))
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
	archive, doneMissed := rm.st.Done()
	if len(archive) < len(prev) {
		t.Fatalf("archive shrank from %d to %d entries", len(prev), len(archive))
	}
	missed := 0
	for i, d := range archive {
		if i < len(prev) && d != prev[i] {
			t.Fatalf("archive entry %d rewritten: %+v, was %+v", i, d, prev[i])
		}
		if d.State != "completed" || d.Delivered != d.Total {
			t.Errorf("archived job %s is %s with %+v of %+v delivered", d.ID, d.State, d.Delivered, d.Total)
		}
		if _, live := rm.st.Jobs()[d.ID]; live {
			t.Errorf("job %s is archived and still in the live table", d.ID)
		}
		if d.Missed {
			missed++
		}
	}
	if missed != doneMissed {
		t.Errorf("doneMissed = %d, the archive holds %d missed jobs", doneMissed, missed)
	}
	for qid, l := range rm.st.Leases() {
		if l.Job.Done {
			t.Errorf("lease %s points at completed job %s", qid, l.Job.ID)
		}
	}
	for id, j := range rm.st.Jobs() {
		if j.Done {
			t.Errorf("completed job %s is still in the live table", id)
		}
	}
	for id, ws := range rm.st.Workflows() {
		live := 0
		for _, j := range ws.Jobs {
			if !j.Done {
				live++
			} else if !j.InFlight.IsZero() {
				t.Errorf("completed job %s has %v in flight", j.ID, j.InFlight)
			}
		}
		if live == 0 || live != ws.Live {
			t.Errorf("workflow %s tracked with %d live jobs, counts %d", id, live, ws.Live)
		}
	}
	return append([]rmproto.JobStatus(nil), archive...)
}

// driveMixed plays a seeded mixed run on c for the given number of slots:
// chain workflows (every third with a deadline it cannot meet) and ad-hoc
// jobs arriving throughout, on three nodes. Workflows keep arriving to the
// last slots, not only through the first half: FlowTime runs ready
// deadline work on idle capacity, so on this mostly idle cluster a chain is
// done a few slots after it arrives instead of near its deadline, and only
// a run that keeps submitting still has a half-archived workflow at its
// late samples and live workflows beside finished ones at its end — what
// the two tests below are written to observe. The first-fit node restarts
// once (re-registers, so the RM requeues what it held) and later wedges
// long enough for its leases to expire. Every node heartbeats in every
// slot, so what one reply carries is what the node was handed for the
// slot, by the tick and by the other nodes' confirming heartbeats
// together: it must fit the node.
// each runs after every slot's heartbeats. It may restart the RM by
// replacing *c with another cluster: the nodes register with that one
// before the next slot, holding nothing. afterOp, when not nil, runs after
// every call that may change the RM's state, named by what.
func driveMixed(t *testing.T, c *cluster, seed int64, slots int, each func(slot int), afterOp func(what string)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	did := func(format string, args ...any) {
		if afterOp != nil {
			afterOp(fmt.Sprintf(format, args...))
		}
	}
	for slot := 0; slot < slots; slot++ {
		if len(c.nodes) == 0 {
			for _, n := range []string{"n1", "n2", "n3"} {
				c.register(n, 4, 8*1024)
				did("slot %d: register %s", slot, n)
			}
		}
		if slot%4 == 0 {
			wf := chainWorkflow(int64(200 + rng.Intn(400)))
			if slot%12 == 8 {
				wf = chainWorkflow(20)
			}
			wf.ID = fmt.Sprintf("wf-%d", slot)
			if _, err := c.rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: wf}); err != nil {
				t.Fatalf("SubmitWorkflow: %v", err)
			}
			did("slot %d: submit %s", slot, wf.ID)
		}
		for i := rng.Intn(3); i > 0; i-- {
			submitAdHoc(t, c.rm, fmt.Sprintf("a%d-%d", slot, i), 1+rng.Intn(3), int64(10*(1+rng.Intn(2))))
			did("slot %d: submit a%d-%d", slot, slot, i)
		}
		c.tick()
		did("slot %d: tick", slot)
		if slot == 7 {
			c.register("n1", 4, 8*1024) // restarted with empty hands
			did("slot %d: re-register n1", slot)
		}
		c.wedged["n1"] = slot >= 10 && slot < 16
		c.beatAll(func(n string, launch []rmproto.Quantum) {
			did("slot %d: heartbeat %s", slot, n)
			var handed rmproto.Resources
			for _, q := range launch {
				handed.VCores += q.Grant.VCores
				handed.MemoryMB += q.Grant.MemoryMB
			}
			if handed.VCores > 4 || handed.MemoryMB > 8*1024 {
				t.Fatalf("slot %d: node %s was handed %+v in one slot, over its capacity", slot, n, handed)
			}
		})
		each(slot)
	}
}

// mixedConfig is the configuration driveMixed's runs are played under.
func mixedConfig() Config {
	return Config{Scheduler: core.New(core.DefaultConfig()), LeaseExpiry: 3}
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
// follower's reference walk. Every view reports the in-process at_risk
// list, which the tight workflows fill and the follower, whose scheduler
// never runs, leaves empty.
func TestStatusViewsAgree(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		dir := t.TempDir()
		c := newCluster(t, mixedConfig(), &durable{dir: dir, policy: store.SyncNever})
		front := &swapHandler{}
		front.serve(c.rm)
		ts := httptest.NewServer(front)
		follower := newCluster(t, Config{Follower: true}, &durable{}).rm
		fts := httptest.NewServer(follower.Handler())
		ctx := context.Background()
		long, sparse, replica := NewClient(ts.URL, ts.Client()), NewClient(ts.URL, ts.Client()), NewClient(fts.URL, fts.Client())
		view := func(what string, c *Client, want []rmproto.JobStatus, sum rmproto.JobSummary, risk []rmproto.WorkflowRisk) {
			t.Helper()
			st, err := c.Status(ctx)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameJobTable(t, what, st.Jobs, want)
			if st.Done != nil || st.LiveChange != 0 || st.Summary != sum {
				t.Fatalf("%s: done block %v, live change %d, summary %+v, want folded and %+v", what, st.Done, st.LiveChange, st.Summary, sum)
			}
			if !slices.Equal(st.AtRisk, risk) {
				t.Fatalf("%s: at risk %+v, want %+v", what, st.AtRisk, risk)
			}
		}
		riskSlots := 0
		instances, followerInstances := map[string]bool{}, map[string]bool{}
		var archive []rmproto.JobStatus
		var requeues int64 // both processes' own, summed across the restart
		driveMixed(t, c, seed, 40, func(slot int) {
			switch slot {
			case 13, 29:
				// The follower is a generation behind until it installs this.
				if err := c.rm.WriteSnapshot(); err != nil {
					t.Fatalf("WriteSnapshot: %v", err)
				}
			case 21:
				requeues += c.rm.Status().Faults.RequeuedQuanta
				c.store.Close()
				*c = *newCluster(t, mixedConfig(), &durable{dir: dir, policy: store.SyncNever})
				front.serve(c.rm)
			}
			rm := c.rm
			at := fmt.Sprintf("seed %d slot %d", seed, slot)
			want := referenceJobs(rm)
			if !sort.SliceIsSorted(want, func(a, b int) bool { return want[a].ID < want[b].ID }) {
				t.Fatal("reference table not sorted")
			}
			inproc := rm.Status()
			sameJobTable(t, at+": Server.Status()", inproc.Jobs, want)
			view(at+": long-lived client", long, want, inproc.Summary, inproc.AtRisk)
			view(at+": new client", NewClient(ts.URL, ts.Client()), want, inproc.Summary, inproc.AtRisk)
			if slot%3 == 0 {
				view(at+": every-third-slot client", sparse, want, inproc.Summary, inproc.AtRisk)
			}
			if len(inproc.AtRisk) > 0 {
				riskSlots++
			}
			pumpRepl(t, rm, follower)
			view(at+": follower's client", replica, referenceJobs(follower), follower.Status().Summary, nil)
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
		}, nil)
		ts.Close()
		fts.Close()
		rm := c.rm
		if len(instances) != 2 || len(followerInstances) < 3 {
			t.Errorf("seed %d: the clients saw %d primary and %d follower instances; want the restart's 2 and the installs' 3", seed, len(instances), len(followerInstances))
		}
		st := rm.Status()
		requeues += st.Faults.RequeuedQuanta
		if requeues == 0 || st.Summary.Completed == 0 || st.Summary.Completed == len(st.Jobs) || st.Summary.Missed == 0 || riskSlots == 0 {
			t.Errorf("seed %d exercised too little: %d requeues, summary %+v of %d jobs, %d slots with a workflow at risk", seed, requeues, st.Summary, len(st.Jobs), riskSlots)
		}
		rm.mu.Lock()
		done, _ := rm.st.Done()
		doneWFs := map[string]bool{}
		for _, d := range done {
			if d.WorkflowID != "" {
				doneWFs[d.WorkflowID] = true
			}
		}
		if wfs := len(rm.st.Workflows()); len(doneWFs) <= wfs || wfs == 0 {
			t.Errorf("seed %d: %d workflows seen finishing jobs, %d still live; want some finished and some not", seed, len(doneWFs), wfs)
		}
		rm.mu.Unlock()
	}
}

// TestRecoveryEquivalenceAcrossArchive runs the durability oracle where
// the archive matters: mid-workflow (some jobs of a workflow archived,
// some live), on a store that is a snapshot plus a WAL suffix,
// on a follower fed by ShipLog (snapshot install included), and finally
// on the directory reopened by a fresh server.
func TestRecoveryEquivalenceAcrossArchive(t *testing.T) {
	dir := t.TempDir()
	c := newCluster(t, mixedConfig(), &durable{dir: dir, policy: store.SyncNever})
	rm := c.rm
	follower := newCluster(t, Config{Follower: true, LeaseExpiry: rm.cfg.LeaseExpiry}, &durable{}).rm
	var archive []rmproto.JobStatus
	driveMixed(t, c, 5, 30, func(slot int) {
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
		for _, ws := range rm.st.Workflows() {
			midWorkflow = midWorkflow || ws.Live < len(ws.Jobs)
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
	}, nil)
	if len(archive) == 0 {
		t.Fatal("nothing was archived")
	}
	before := rm.Status()

	c2 := newCluster(t, mixedConfig(), &durable{dir: dir, policy: store.SyncNever})
	rm2, st2 := c2.rm, c2.store
	if rec := rm2.Recovery(); !rec.FromSnapshot || rec.RecordsReplayed == 0 {
		t.Fatalf("reopened from %+v, want a snapshot plus a WAL suffix", rec)
	}
	// Recovery took the store's image: the store keeps none of it.
	if snap, recs := st2.TakeRecovered(); snap != nil || recs != nil {
		t.Errorf("after New the store still holds a %d-byte snapshot and %d records", len(snap), len(recs))
	}
	archive2, _ := rm2.st.Done()
	sameJobTable(t, "archive after reopen", archive2, archive)
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
	c1 := newCluster(t, Config{}, &durable{dir: dir, abandon: true})
	c1.register("n1", 16, 32*1024)
	submitBoth(t, c1.rm)
	if st := c1.runToCompletion(100); !allCompleted(st) {
		t.Fatal("run did not complete")
	}
	submitAdHoc(t, c1.rm, "tail", 1, 10)

	rm2 := newCluster(t, Config{}, &durable{dir: dir}).rm
	once := rm2.Status()
	tail := readWAL(t, dir) // the segment recovery replayed, read again: the store keeps none of it
	rm2.mu.Lock()
	snapOnce, _ := rm2.st.Snapshot()
	for i, payload := range tail {
		if err := rm2.applyRecordLocked(payload); err != nil {
			t.Fatalf("second replay, record %d: %v", i, err)
		}
	}
	snapTwice, _ := rm2.st.Snapshot()
	live, wfs := len(rm2.st.Jobs()), len(rm2.st.Workflows())
	rm2.mu.Unlock()
	if !bytes.Equal(snapOnce, snapTwice) {
		t.Errorf("replaying the tail twice changed the state:\nonce:  %s\ntwice: %s", snapOnce, snapTwice)
	}
	sameJobTable(t, "status after the second replay", rm2.Status().Jobs, once.Jobs)
	if live != 1 || wfs != 0 || once.Summary.Completed != 3 {
		t.Errorf("after replay: %d live jobs, %d live workflows, %d completed; want 1, 0, 3", live, wfs, once.Summary.Completed)
	}
}

// completedRM builds a cluster (FIFO, no store) whose RM holds the given
// numbers of completed and live one-task ad-hoc jobs.
// TestStatusFoldsWhileTheArchiveGrows calls the in-process Status from
// several goroutines while slots complete more jobs: each answer is the
// whole job table in ID order, each ID once. Under -race it checks the
// lock that guards the archive kept in ID order.
func TestStatusFoldsWhileTheArchiveGrows(t *testing.T) {
	c := completedRM(t, sched.NewFIFO(), 30, 5)
	for i := 0; i < 30; i++ {
		if _, err := c.rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
			ID: fmt.Sprintf("more-%05d", i), Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 512,
		}}); err != nil {
			t.Fatalf("SubmitAdHoc: %v", err)
		}
	}
	done := make(chan struct{})
	errs := make(chan error, 4)
	for range 4 {
		go func() {
			for {
				st := c.rm.Status()
				if sum := st.Summary.Completed + st.Summary.Pending + st.Summary.Running; len(st.Jobs) != sum {
					errs <- fmt.Errorf("status lists %d jobs and counts %d", len(st.Jobs), sum)
					return
				}
				for i := 1; i < len(st.Jobs); i++ {
					if st.Jobs[i-1].ID >= st.Jobs[i].ID {
						errs <- fmt.Errorf("status lists %s before %s", st.Jobs[i-1].ID, st.Jobs[i].ID)
						return
					}
				}
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
			}
		}()
	}
	c.run(4)
	close(done)
	for range 4 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if st := c.rm.Status(); st.Summary.Completed != 60 {
		t.Fatalf("%d jobs completed, want 60: the archive did not grow", st.Summary.Completed)
	}
}

func completedRM(tb testing.TB, s sched.Scheduler, completed, live int) *cluster {
	tb.Helper()
	c := newCluster(tb, Config{Scheduler: s}, nil)
	c.register("n1", int64(completed+1), int64(completed+1)*512)
	submit := func(prefix string, n int, durSec int64) {
		for i := 0; i < n; i++ {
			if _, err := c.rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
				ID: fmt.Sprintf("%s%05d", prefix, i), Tasks: 1, TaskDurSec: durSec, DemandVCores: 1, DemandMemMB: 512,
			}}); err != nil {
				tb.Fatalf("SubmitAdHoc: %v", err)
			}
		}
	}
	submit("done-", completed, 10)
	c.run(2)
	submit("live-", live, 1<<20)
	if st := c.rm.Status(); st.Summary.Completed != completed || len(st.Jobs) != completed+live {
		tb.Fatalf("built %d completed of %d jobs, want %d of %d", st.Summary.Completed, len(st.Jobs), completed, completed+live)
	}
	return c
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
	rm := completedRM(t, sched.NewFIFO(), 2000, 20).rm
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
	cl := completedRM(t, sched.NewFIFO(), 0, 2000)
	rm := cl.rm
	ts := httptest.NewServer(rm.Handler())
	defer ts.Close()
	rt := &countingRT{rt: http.DefaultTransport}
	c := NewClient(ts.URL, &http.Client{Transport: rt})
	ctx := context.Background()
	if _, err := c.Status(ctx); err != nil {
		t.Fatalf("Status: %v", err)
	}
	firstWire, firstDecoded := rt.sizes()
	cl.register("n1", 20, 20*512) // room for 20 one-core jobs
	cl.tick()
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
	c := completedRM(t, cs, 2000, 20)
	rm := c.rm
	c.tick()
	rm.mu.Lock()
	archive, _ := rm.st.Done()
	tracked, wfs, archived := len(rm.st.Jobs()), len(rm.st.Workflows()), len(archive)
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
	c := newCluster(t, Config{Scheduler: sched.NewEDF()}, nil)
	rm := c.rm
	c.register("n1", 16, 32*1024)
	req := rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}
	if _, err := rm.SubmitWorkflow(req); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	if _, err := rm.SubmitWorkflow(req); err == nil {
		t.Error("duplicate of a running workflow accepted")
	}
	if st := c.runToCompletion(100); !allCompleted(st) {
		t.Fatal("workflow did not complete")
	}
	rm.mu.Lock()
	left := len(rm.st.Workflows()) + len(rm.st.Jobs())
	rm.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d entries left in the live tables after completion", left)
	}
	if _, err := rm.SubmitWorkflow(req); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate of a completed workflow: %v, want a duplicate error", err)
	}
}
