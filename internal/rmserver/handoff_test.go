package rmserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/oracle"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmstate"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// The scheduler decides at the tick, the RM executes on the confirm: a
// grant to a job whose predecessors are all running their last quanta is
// held as an offer and becomes leases in the heartbeat that confirms them
// (Server.Heartbeat, decideHandOff). These tests pin when that
// happens, when it must not, and that the books balance either way.

// checkBooks verifies what a hand-off could unbalance: every lease belongs
// to a live job and the leases of a job sum to its in-flight volume; no
// node was handed more than its capacity this slot, and what it was handed
// covers the leases issued on it this slot that are still out; every offer
// is for a live job.
func checkBooks(t testing.TB, rm *Server, what string) {
	t.Helper()
	rm.mu.Lock()
	defer rm.mu.Unlock()
	inFlight := map[*rmstate.Job]resource.Vector{}
	thisSlot := map[string]resource.Vector{}
	jobs := rm.st.Jobs()
	for qid, l := range rm.st.Leases() {
		if jobs[l.Job.ID] != l.Job || l.Job.Done {
			t.Fatalf("%s: lease %s belongs to %s, which is not a live job", what, qid, l.Job.ID)
		}
		inFlight[l.Job] = inFlight[l.Job].Add(l.Grant)
		if l.Expiry-rm.cfg.LeaseExpiry == rm.st.Slot()-1 { // issued this slot
			thisSlot[l.NodeID] = thisSlot[l.NodeID].Add(l.Grant)
		}
	}
	for _, j := range jobs {
		if j.InFlight != inFlight[j] {
			t.Fatalf("%s: job %s has %v in flight, its leases sum to %v", what, j.ID, j.InFlight, inFlight[j])
		}
	}
	for _, n := range rm.byID {
		if !n.Placed.FitsIn(n.Capacity) || !thisSlot[n.ID].FitsIn(n.Placed) {
			t.Fatalf("%s: node %s (capacity %v) has %v placed and %v leased this slot", what, n.ID, n.Capacity, n.Placed, thisSlot[n.ID])
		}
	}
	for _, o := range rm.offers {
		if jobs[o.Job.ID] != o.Job || o.Grant.IsZero() {
			t.Fatalf("%s: offer of %v to %s, which is not a live job", what, o.Grant, o.Job.ID)
		}
	}
}

func vcores(qs []rmproto.Quantum, job string) (n int64) {
	for _, q := range qs {
		if q.JobID == job {
			n += q.Grant.VCores
		}
	}
	return n
}

func handOffs(rm *Server) [2]int64 {
	d, l := rm.HandOffs()
	return [2]int64{d, l}
}

// stage is one job of one-core tasks of the given length.
func stage(name string, tasks int, durSec int64) trace.JobRecord {
	return trace.JobRecord{Name: name, Tasks: tasks, TaskDurSec: durSec, DemandVCores: 1, DemandMemMB: 1024}
}

// twoStage is the smallest chain with a hand-off in it: a then b, one slot
// of four cores each at the tests' 10 s slot.
func twoStage() rmproto.SubmitWorkflowRequest {
	return rmproto.SubmitWorkflowRequest{Workflow: trace.WorkflowRecord{
		ID: "wf", DeadlineSec: 3600,
		Jobs: []trace.JobRecord{stage("a", 4, 10), stage("b", 4, 10)},
		Deps: [][2]int{{0, 1}},
	}}
}

// TestChainStartsOnTheConfirmingHeartbeat is the verify skill's scenario:
// one 3-level chain, two slots of work a level, alone on one node, driven
// over HTTP through Client as a node agent would. Under FlowTime each level
// starts in the heartbeat that confirms the one before it, so the chain
// completes at slots 3/5/7 — the critical path plus one final confirm. The
// baselines ignore ReadyOnConfirm and keep the hand-off slot per level:
// 3/6/9, bit-identical to before offers existed.
func TestChainStartsOnTheConfirmingHeartbeat(t *testing.T) {
	for _, tc := range []struct {
		sched    sched.Scheduler
		want     [3]int64
		handOffs [2]int64
	}{
		{core.New(core.DefaultConfig()), [3]int64{3, 5, 7}, [2]int64{2, 0}},
		{sched.NewEDF(), [3]int64{3, 6, 9}, [2]int64{0, 0}},
		{sched.NewFIFO(), [3]int64{3, 6, 9}, [2]int64{0, 0}},
	} {
		t.Run(tc.sched.Name(), func(t *testing.T) {
			rm := newCluster(t, Config{SlotDur: time.Minute, Scheduler: tc.sched}, nil).rm
			ts := httptest.NewServer(rm.Handler())
			defer ts.Close()
			c, ctx := NewClient(ts.URL, ts.Client()), context.Background()
			if _, err := c.RegisterNode(ctx, rmproto.RegisterNodeRequest{NodeID: "n1", Capacity: rmproto.Resources{VCores: 16, MemoryMB: 65536}}); err != nil {
				t.Fatalf("RegisterNode: %v", err)
			}
			if _, err := c.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{Workflow: trace.WorkflowRecord{
				ID: "wf", DeadlineSec: 3600,
				Jobs: []trace.JobRecord{stage("a", 4, 120), stage("b", 4, 120), stage("c", 4, 120)},
				Deps: [][2]int{{0, 1}, {1, 2}},
			}}); err != nil {
				t.Fatalf("SubmitWorkflow: %v", err)
			}
			var held []string
			for slot := 0; slot < 12; slot++ {
				if err := c.Tick(ctx); err != nil {
					t.Fatalf("Tick: %v", err)
				}
				resp, err := c.Heartbeat(ctx, rmproto.HeartbeatRequest{NodeID: "n1", Completed: held})
				if err != nil {
					t.Fatalf("Heartbeat: %v", err)
				}
				held = quantumIDs(resp.Launch)
				checkBooks(t, rm, fmt.Sprintf("slot %d", slot))
			}
			st, err := c.Status(ctx)
			if err != nil {
				t.Fatalf("Status: %v", err)
			}
			var got [3]int64
			for i, j := range st.Jobs { // sorted by ID: wf/a#0, wf/b#1, wf/c#2
				got[i] = j.CompletedSec / 60
			}
			if got != tc.want {
				t.Errorf("levels completed at slots %v, want %v", got, tc.want)
			}
			if got := handOffs(rm); got != tc.handOffs || st.Faults.RequeuedQuanta != 0 {
				t.Errorf("hand-offs (dispatched, lapsed) = %v with %d requeues, want %v and none", got, st.Faults.RequeuedQuanta, tc.handOffs)
			}
		})
	}
}

// fanIn is two one-slot predecessors that first-fit spreads over n1 and
// n2, and a successor wide enough to need a second node.
func fanIn(t *testing.T) *cluster {
	t.Helper()
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
	for _, n := range []string{"n1", "n2", "n3"} {
		c.register(n, 4, 8192)
	}
	if _, err := c.rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: trace.WorkflowRecord{
		ID: "wf", DeadlineSec: 3600,
		Jobs: []trace.JobRecord{stage("p1", 4, 10), stage("p2", 4, 10), stage("c", 8, 10)},
		Deps: [][2]int{{0, 2}, {1, 2}},
	}}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	return c
}

// TestFanInDispatchesOnTheLastConfirm: with two predecessors confirmed by
// different nodes' heartbeats, the first confirm dispatches nothing and
// the second dispatches once — on the confirming node as far as it has
// room, then on a node that has not fetched its queue for the slot, never
// on one that has. Repeating the confirm repeats nothing.
func TestFanInDispatchesOnTheLastConfirm(t *testing.T) {
	c := fanIn(t)
	c.tick()
	on1, on2 := c.beat("n1", nil), c.beat("n2", nil)
	if vcores(on1, "wf/p1#0") != 4 || vcores(on2, "wf/p2#1") != 4 || len(c.beat("n3", nil)) != 0 {
		t.Fatalf("first slot placed %v on n1 and %v on n2, want p1 and p2 whole", on1, on2)
	}
	c.tick() // c is ready on confirm: the cluster is idle, it is offered its 8 cores
	if got := c.beat("n1", quantumIDs(on1)); len(got) != 0 {
		t.Fatalf("p1's confirm, with p2 still running, launched %v", got)
	}
	if c.rm.Status().OutstandingLeases != 1 {
		t.Fatal("the first confirm created a lease")
	}
	checkBooks(t, c.rm, "after the first confirm")
	got2 := c.beat("n2", quantumIDs(on2))
	if vcores(got2, "wf/c#2") != 4 || len(got2) != 1 {
		t.Fatalf("p2's confirm launched %v on n2, want 4 cores of c", got2)
	}
	checkBooks(t, c.rm, "after the second confirm")
	if again := c.beat("n2", quantumIDs(on2)); len(again) != 0 {
		t.Errorf("a repeated confirm launched %v", again)
	}
	if late := c.beat("n1", nil); len(late) != 0 {
		t.Errorf("n1, which had heartbeaten before the dispatch, was handed %v", late)
	}
	got3 := c.beat("n3", nil)
	if vcores(got3, "wf/c#2") != 4 || len(got3) != 1 {
		t.Fatalf("n3 fetched %v, want the other 4 cores of c", got3)
	}
	if got, st := handOffs(c.rm), c.rm.Status(); got != [2]int64{1, 0} || st.OutstandingLeases != 2 || st.Faults.StaleConfirms != 1 {
		t.Errorf("hand-offs %v, %d leases out, %d stale confirms; want one dispatch, c's two leases, the repeated confirm stale",
			got, st.OutstandingLeases, st.Faults.StaleConfirms)
	}
	c.tick()
	c.beat("n2", quantumIDs(got2))
	c.beat("n3", quantumIDs(got3))
	for _, j := range c.rm.Status().Jobs {
		if j.State != "completed" || j.Delivered != j.Total {
			t.Errorf("job %s: %s, delivered %+v of %+v", j.ID, j.State, j.Delivered, j.Total)
		}
	}
	checkBooks(t, c.rm, "at the end")
}

// TestHandOffTriesTheConfirmingNodeFirst: the nodes heartbeat in reverse
// ID order, and n2's confirm of a makes b ready while n1, before it in ID
// order, is idle and has not heartbeaten. b lands on n2: a hand-off tries
// the confirming node first, then the nodes not heard in ID order, and
// not ID order over them all.
func TestHandOffTriesTheConfirmingNodeFirst(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
	c.register("n1", 4, 8192)
	c.register("n2", 4, 8192)
	submitAdHoc(t, c.rm, "x", 4, 10)
	if _, err := c.rm.SubmitWorkflow(twoStage()); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	c.tick()
	a, x := c.beat("n2", nil), c.beat("n1", nil)
	if vcores(a, "wf/a#0") != 4 || vcores(x, rmproto.AdHocJobID("x")) != 4 {
		t.Fatalf("the first slot placed %v on n2 and %v on n1, want a on n2 and x on n1", a, x)
	}
	c.tick() // b is offered
	if b := c.beat("n2", quantumIDs(a)); vcores(b, "wf/b#1") != 4 {
		t.Fatalf("n2's confirm of a launched %v on n2, want b's 4 cores", b)
	}
	if late := c.beat("n1", quantumIDs(x)); len(late) != 0 {
		t.Errorf("n1, idle and not yet heard at the hand-off, was handed %v", late)
	}
	if got := handOffs(c.rm); got != [2]int64{1, 0} {
		t.Errorf("hand-offs (dispatched, lapsed) = %v, want one dispatch", got)
	}
	checkBooks(t, c.rm, "after the hand-off")
}

// TestLapsedOfferLeavesNothingBehind: when the confirm comes after the
// next tick, the offer it would have claimed is gone with its slot — no
// lease, no placed volume, no requeue — and that tick's own offer is the
// one the late confirm dispatches.
func TestLapsedOfferLeavesNothingBehind(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
	c.register("n1", 4, 8192)
	if _, err := c.rm.SubmitWorkflow(twoStage()); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	c.tick()
	a := c.beat("n1", nil)
	c.tick() // b is offered; the node is late
	checkBooks(t, c.rm, "with the offer held")
	c.tick() // the offer lapses; a is still out, so b is offered again
	if got, st := handOffs(c.rm), c.rm.Status(); got != [2]int64{0, 1} || st.OutstandingLeases != 1 {
		t.Fatalf("after the lapse: hand-offs %v, %d leases; want one lapsed and only a's lease", got, st.OutstandingLeases)
	}
	checkBooks(t, c.rm, "after the lapse")
	b := c.beat("n1", quantumIDs(a))
	if vcores(b, "wf/b#1") != 4 {
		t.Fatalf("the late confirm launched %v, want b's 4 cores from this slot's offer", b)
	}
	checkBooks(t, c.rm, "after the late confirm")
	c.tick()
	c.beat("n1", quantumIDs(b))
	st := c.rm.Status()
	if got := handOffs(c.rm); got != [2]int64{1, 1} || st.OutstandingLeases != 0 || st.Faults.RequeuedQuanta != 0 || !allCompleted(st) {
		t.Errorf("at the end: hand-offs %v, %d leases, %d requeues, all completed %v", got, st.OutstandingLeases, st.Faults.RequeuedQuanta, allCompleted(st))
	}
	checkBooks(t, c.rm, "at the end")
}

// syncHookFS runs a hook inside every fsync: the instant a tick's record
// is on its way to the disk, after decideTick and before the tick queues
// its grants and arms its offers.
type syncHookFS struct {
	store.FS
	hook func()
}

func (fs *syncHookFS) OpenAppend(path string) (store.File, error) {
	f, err := fs.FS.OpenAppend(path)
	return syncHookFile{f, fs}, err
}

type syncHookFile struct {
	store.File
	fs *syncHookFS
}

func (f syncHookFile) Sync() error {
	if hook := f.fs.hook; hook != nil {
		f.fs.hook = nil
		hook()
	}
	return f.File.Sync()
}

// TestOffersDispatchOnlyWhereTheyMay: a draining RM issues no lease, on a
// confirm either; a heartbeat that lands while the tick's commit is in
// flight finds no offer armed, because nothing of a tick leaves before
// what was journaled ahead of it is durable; a follower takes no
// heartbeat at all, replays the primary's dispatch from the log as the
// same lease, and requeues it on promotion.
func TestOffersDispatchOnlyWhereTheyMay(t *testing.T) {
	// held runs c to the slot in which b is offered and returns a's quanta.
	held := func(t *testing.T, c *cluster) []string {
		t.Helper()
		c.register("n1", 4, 8192)
		if _, err := c.rm.SubmitWorkflow(twoStage()); err != nil {
			t.Fatalf("SubmitWorkflow: %v", err)
		}
		c.tick()
		return quantumIDs(c.beat("n1", nil))
	}

	t.Run("draining", func(t *testing.T) {
		c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
		a := held(t, c)
		c.tick()
		c.rm.BeginDrain()
		if got := c.beat("n1", a); len(got) != 0 || c.rm.Status().OutstandingLeases != 0 {
			t.Errorf("a draining RM dispatched %v", got)
		}
		checkBooks(t, c.rm, "draining")
	})

	t.Run("heartbeat inside the tick commit", func(t *testing.T) {
		fs := &syncHookFS{FS: store.OSFS}
		c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, &durable{fs: fs})
		rm := c.rm
		a := held(t, c)
		var early []rmproto.Quantum
		fs.hook = func() { early = c.beat("n1", a) }
		c.tick()
		if fs.hook != nil {
			t.Fatal("the tick did not fsync")
		}
		if len(early) != 0 || handOffs(rm) != [2]int64{0, 0} || rm.Status().OutstandingLeases != 0 {
			t.Fatalf("the heartbeat inside the commit was handed %v (hand-offs %v, %d leases)", early, handOffs(rm), rm.Status().OutstandingLeases)
		}
		checkBooks(t, rm, "after the early heartbeat")
		if final := c.runToCompletion(20); !allCompleted(final) || final.Faults.RequeuedQuanta != 0 {
			t.Errorf("the chain did not complete cleanly afterwards: %+v", final.Summary)
		}
		verifyEquiv(t, rm, "after the run")
	})

	t.Run("follower", func(t *testing.T) {
		p := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, &durable{})
		f := newCluster(t, Config{Follower: true}, &durable{})
		primary, follower := p.rm, f.rm
		a := held(t, p)
		p.tick()
		b := p.beat("n1", a)
		if vcores(b, "wf/b#1") != 4 {
			t.Fatalf("the primary dispatched %v, want b's 4 cores", b)
		}
		pumpRepl(t, primary, follower)
		if _, err := follower.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: a}, f.now); !errors.Is(err, ErrNotLeader) {
			t.Errorf("follower heartbeat = %v, want ErrNotLeader", err)
		}
		primary.mu.Lock()
		want, _ := primary.st.Snapshot()
		primary.mu.Unlock()
		follower.mu.Lock()
		got, _ := follower.st.Snapshot()
		follower.mu.Unlock()
		if string(got) != string(want) {
			t.Errorf("the follower's state differs from the primary's after the dispatch:\n%s\n%s", got, want)
		}
		verifyEquiv(t, primary, "primary, dispatch unsynced")
		verifyEquiv(t, follower, "follower")
		if resp, err := follower.Promote(); err != nil || resp.OrphanLeasesRequeued != 1 {
			t.Errorf("Promote = %+v, %v; want b's lease requeued", resp, err)
		}
	})
}

// TestMixedRunHoldsEveryRelation plays the seeded mixed run — arrivals
// throughout, a node restart, a wedged node — under a FlowTime whose every
// Assign is held to work conservation with offers in it and to the
// ad-hoc-removal twin (oracle.Conserving; a violation fails the tick), with
// the books checked after every slot and driveMixed's own per-node check
// that the tick's and the heartbeats' grants together never exceed a
// node's capacity. The runs must contain dispatched and lapsed offers.
//
// The offer rule bites: with Assign's idle pass serving the ready-on-
// confirm jobs before the ready ones (serve(onConfirm) ahead of
// serve(ready)), this test fails at seed 1 with "offers vcores to ...,
// ready only on confirm, while ready job ... has ..." — tried on a scratch
// copy, not kept.
func TestMixedRunHoldsEveryRelation(t *testing.T) {
	var dispatched, lapsed int64
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		ft := oracle.NewConserving(core.DefaultConfig())
		c := newCluster(t, Config{Scheduler: ft, LeaseExpiry: 3}, &durable{policy: store.SyncNever})
		rm := c.rm
		driveMixed(t, c, seed, 40, func(slot int) {
			checkBooks(t, rm, fmt.Sprintf("seed %d slot %d", seed, slot))
		}, nil)
		if ft.Slots() != 40 {
			t.Errorf("seed %d: %d of 40 slots passed the scheduler's checks", seed, ft.Slots())
		}
		verifyEquiv(t, rm, fmt.Sprintf("seed %d", seed))
		d, l := rm.HandOffs()
		dispatched, lapsed = dispatched+d, lapsed+l
	}
	if dispatched < 10 || lapsed == 0 {
		t.Errorf("%d offers dispatched and %d lapsed over the runs; want both exercised", dispatched, lapsed)
	}
}

// FuzzHeartbeatBody posts arbitrary binary bodies to /v1/nodes/heartbeat
// on a server that holds an offer one confirm away from dispatch (fanIn with
// p1 confirmed: q-2, on n2, is what c waits for). Whatever arrives — p2's
// confirm, duplicate IDs, another node's quantum, unknown nodes, a spelled-
// out quantum ID, a second body after the first, trailing bytes, JSON — the
// answer is a 4xx with an error body or a 200, only for a body that
// re-encodes to itself, whose reply decodes and re-encodes to itself and
// launches only leases of the calling node; the books balance, the offer is
// dispatched at most once, and the same body again is answered the same way
// and handed nothing.
func FuzzHeartbeatBody(f *testing.F) {
	jsonSeeds := []string{
		`{"node_id":"n2","completed":["q-2"]}`,
		`{"node_id":"n2","completed":["q-2","q-2","q-1","q-999",""]}`,
		`{"node_id":"n3","completed":["q-2"]}`,
		`{"node_id":"n1","completed":["q-1"]}`,
		`{"node_id":"n2"}`,
		`{"node_id":"ghost","completed":["q-2"]}`,
		`{"node_id":"n2","completed":["q-2"],"extra":1}`,
		`{"node_id":"n2","completed":"q-2"}`,
		`{"node_id":"n2","completed":["q-2"]}{"node_id":"n3"}`,
		`{"node_id":"n1"}{"node_id":"n2"}`,
		`{"node_id":"n2","completed":["q-2"]} x`,
		"{\"node_id\":\"n2\",\"completed\":[\"q-2\"]}\n\t ",
		`{}`, `[]`, `null`, ``, `{"node_id":`, "\x00\xff",
	}
	// The same bodies in the binary form, one for one, then the JSON ones
	// as the garbage a JSON client would send.
	for _, seed := range append([]string{
		hbBody("n2", "q-2"),
		hbBody("n2", "q-2", "q-2", "q-1", "q-999", ""),
		hbBody("n3", "q-2"),
		hbBody("n1", "q-1"),
		hbBody("n2"),
		hbBody("ghost", "q-2"),
		hbBody("n2", "q-2") + "\x01",
		"\x02n2\x01\x00\x03q-2", // q-2 spelled out
		hbBody("n2", "q-2") + hbBody("n3"),
		hbBody("n1") + hbBody("n2"),
		hbBody("n2", "q-2") + " x",
		hbBody("n2", "q-2") + "\n\t ",
		hbBody(""), "\x00", "\x02n2\x81\x00", ``, "\x02n", "\x00\xff",
	}, jsonSeeds...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := fanIn(t)
		rm := c.rm
		c.tick()
		on1 := c.beat("n1", nil)
		c.beat("n2", nil)
		c.tick()
		c.beat("n1", quantumIDs(on1))

		h := rm.Handler()
		post := func() (int, []rmproto.Quantum) {
			rec := serve(h, http.MethodPost, rmproto.PathHeartbeat, string(body), "")
			if rec.Code != http.StatusOK {
				var e rmproto.Error
				if rec.Code < 400 || rec.Code > 499 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Message == "" {
					t.Fatalf("%q: status %d with body %q", body, rec.Code, rec.Body)
				}
				return rec.Code, nil
			}
			resp, err := rmproto.DecodeHeartbeatResponse(rec.Body.Bytes())
			if err != nil {
				t.Fatalf("%q: 200 with undecodable body: %v", body, err)
			}
			if re, err := rmproto.AppendHeartbeatResponse(nil, resp); err != nil || !bytes.Equal(re, rec.Body.Bytes()) {
				t.Fatalf("%q: 200 with a reply that does not re-encode to itself (%v)", body, err)
			}
			req, err := rmproto.DecodeHeartbeatRequest(body)
			if err != nil {
				t.Fatalf("%q: accepted, but is not one heartbeat: %v", body, err)
			}
			if re := rmproto.AppendHeartbeatRequest(nil, req); !bytes.Equal(re, body) {
				t.Fatalf("%q: accepted, but re-encodes to %q", body, re)
			}
			rm.mu.Lock()
			for _, q := range resp.Launch {
				if l := leaseOf(rm, q.ID); l == nil || l.NodeID != req.NodeID || l.Job.ID != q.JobID || rmproto.FromVector(l.Grant) != q.Grant {
					t.Errorf("%q: launched %+v, which is not a lease of %s", body, q, req.NodeID)
				}
			}
			rm.mu.Unlock()
			return rec.Code, resp.Launch
		}
		code, _ := post()
		checkBooks(t, rm, "after the body")
		again, launched := post()
		checkBooks(t, rm, "after the body again")
		if again != code || len(launched) != 0 {
			t.Fatalf("%q: answered %d, then %d with %v launched", body, code, again, launched)
		}
		if d, _ := rm.HandOffs(); d > 1 {
			t.Fatalf("%q: the offer was dispatched %d times", body, d)
		}
	})
}

// TestRequestBodyIsBounded: a body past maxRequestBytes is refused with a
// 413 instead of being read to its end.
func TestRequestBodyIsBounded(t *testing.T) {
	c := newCluster(t, Config{}, nil)
	c.register("n1", 4, 8192)
	rm := c.rm
	rec := serve(rm.Handler(), http.MethodPost, rmproto.PathHeartbeat, hbBody("n1", strings.Repeat("q", maxRequestBytes)), "")
	var e rmproto.Error
	if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Message == "" {
		t.Errorf("oversized body: status %d, body %q; want 413 with an error body", rec.Code, rec.Body)
	}
	rec = serve(rm.Handler(), http.MethodPost, rmproto.PathHeartbeat, hbBody("n1"), "")
	if rec.Code != http.StatusOK {
		t.Errorf("an ordinary heartbeat after it: status %d", rec.Code)
	}
}
