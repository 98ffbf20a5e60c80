package rmserver

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"flowtime/internal/binenc"
	"flowtime/internal/core"
	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

const slotDur = 10 * time.Second

func newRM(t *testing.T, s sched.Scheduler) *Server {
	t.Helper()
	rm, err := New(Config{SlotDur: slotDur, Scheduler: s})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rm
}

func register(t testing.TB, rm *Server, id string, cores, memMB int64) {
	t.Helper()
	_, err := rm.RegisterNode(rmproto.RegisterNodeRequest{
		NodeID:   id,
		Capacity: rmproto.Resources{VCores: cores, MemoryMB: memMB},
	}, time.Now())
	if err != nil {
		t.Fatalf("RegisterNode(%s): %v", id, err)
	}
}

func chainWorkflow(deadlineSec int64) trace.WorkflowRecord {
	return trace.WorkflowRecord{
		ID:          "wf-1",
		SubmitSec:   0,
		DeadlineSec: deadlineSec,
		Jobs: []trace.JobRecord{
			{Name: "a", Tasks: 4, TaskDurSec: 30, DemandVCores: 1, DemandMemMB: 1024},
			{Name: "b", Tasks: 4, TaskDurSec: 30, DemandVCores: 1, DemandMemMB: 1024},
		},
		Deps: [][2]int{{0, 1}},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SlotDur: 0, Scheduler: sched.NewFIFO()}); err == nil {
		t.Error("zero slot accepted")
	}
	if _, err := New(Config{SlotDur: time.Second}); err == nil {
		t.Error("nil scheduler accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	rm := newRM(t, sched.NewFIFO())
	if _, err := rm.RegisterNode(rmproto.RegisterNodeRequest{NodeID: ""}, time.Now()); err == nil {
		t.Error("empty node ID accepted")
	}
	if _, err := rm.RegisterNode(rmproto.RegisterNodeRequest{
		NodeID: "n", Capacity: rmproto.Resources{VCores: -1},
	}, time.Now()); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := rm.RegisterNode(rmproto.RegisterNodeRequest{NodeID: "n"}, time.Now()); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestSubmitRequiresNodes(t *testing.T) {
	rm := newRM(t, sched.NewFIFO())
	_, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)})
	if err == nil || !strings.Contains(err.Error(), "no registered nodes") {
		t.Errorf("SubmitWorkflow without nodes = %v, want no-nodes error", err)
	}
}

func TestHeartbeatUnknownNode(t *testing.T) {
	rm := newRM(t, sched.NewFIFO())
	if _, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "ghost"}, time.Now()); err == nil {
		t.Error("heartbeat from unregistered node accepted")
	}
}

// driveToCompletion ticks the RM and heartbeats all nodes until every job
// completes or maxSlots elapse. It returns the final status.
func driveToCompletion(t *testing.T, rm *Server, nodes []string, maxSlots int) rmproto.StatusResponse {
	t.Helper()
	pending := make(map[string][]string, len(nodes)) // node -> running lease IDs
	for slot := 0; slot < maxSlots; slot++ {
		if err := rm.Tick(time.Now()); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		for _, n := range nodes {
			resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{
				NodeID:    n,
				Completed: pending[n],
			}, time.Now())
			if err != nil {
				t.Fatalf("Heartbeat(%s): %v", n, err)
			}
			ids := make([]string, 0, len(resp.Launch))
			for _, q := range resp.Launch {
				ids = append(ids, q.ID)
			}
			pending[n] = ids
		}
		st := rm.Status()
		done := true
		for _, j := range st.Jobs {
			if j.State != "completed" {
				done = false
				break
			}
		}
		if done && len(st.Jobs) > 0 {
			return st
		}
	}
	return rm.Status()
}

func TestWorkflowRunsToCompletionUnderEDF(t *testing.T) {
	rm := newRM(t, sched.NewEDF())
	register(t, rm, "n1", 8, 16*1024)
	register(t, rm, "n2", 8, 16*1024)

	resp, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)})
	if err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	if !resp.Accepted || resp.ID != "wf-1" {
		t.Fatalf("SubmitWorkflow = %+v", resp)
	}
	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err == nil {
		t.Error("duplicate workflow accepted")
	}

	st := driveToCompletion(t, rm, []string{"n1", "n2"}, 100)
	if len(st.Jobs) != 2 {
		t.Fatalf("status has %d jobs, want 2", len(st.Jobs))
	}
	for _, j := range st.Jobs {
		if j.State != "completed" {
			t.Errorf("job %s state = %s, want completed", j.ID, j.State)
		}
		if j.Missed {
			t.Errorf("job %s missed its deadline", j.ID)
		}
	}
}

func TestWorkflowRunsToCompletionUnderFlowTime(t *testing.T) {
	rm := newRM(t, core.New(core.DefaultConfig()))
	register(t, rm, "n1", 16, 32*1024)

	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(1200)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "q1", Tasks: 2, TaskDurSec: 20, DemandVCores: 1, DemandMemMB: 512,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}

	st := driveToCompletion(t, rm, []string{"n1"}, 200)
	completed := 0
	for _, j := range st.Jobs {
		if j.State == "completed" {
			completed++
		}
		if j.Missed {
			t.Errorf("job %s missed", j.ID)
		}
	}
	if completed != 3 {
		t.Errorf("completed = %d jobs, want 3 (2 workflow + 1 ad-hoc)", completed)
	}
}

func TestDependencyOrderingEnforced(t *testing.T) {
	rm := newRM(t, sched.NewFIFO())
	register(t, rm, "n1", 64, 128*1024)
	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}

	// Tick once and heartbeat: only job a may receive leases.
	if err := rm.Tick(time.Now()); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1"}, time.Now())
	if err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	for _, q := range resp.Launch {
		if strings.Contains(q.JobID, "/b#") {
			t.Errorf("dependent job leased before predecessor completed: %+v", q)
		}
	}
}

func TestAdHocDuplicateRejected(t *testing.T) {
	rm := newRM(t, sched.NewFIFO())
	register(t, rm, "n1", 8, 16*1024)
	job := trace.AdHocRecord{ID: "q", Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 256}
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: job}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: job}); err == nil {
		t.Error("duplicate ad-hoc accepted")
	}
	// The ID stays taken after the job completed and left the live table.
	if st := driveToCompletion(t, rm, []string{"n1"}, 10); !allCompleted(st) {
		t.Fatal("job did not complete")
	}
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: job}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate of a completed ad-hoc job: %v, want a duplicate error", err)
	}
}

func TestNodeExpiry(t *testing.T) {
	rm, err := New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO(), NodeExpiry: 25 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	base := time.Now()
	if _, err := rm.RegisterNode(rmproto.RegisterNodeRequest{
		NodeID: "n1", Capacity: rmproto.Resources{VCores: 4, MemoryMB: 4096},
	}, base); err != nil {
		t.Fatalf("RegisterNode: %v", err)
	}
	if err := rm.Tick(base.Add(10 * time.Second)); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if st := rm.Status(); st.Nodes != 1 {
		t.Fatalf("nodes = %d, want 1", st.Nodes)
	}
	if err := rm.Tick(base.Add(60 * time.Second)); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if st := rm.Status(); st.Nodes != 0 {
		t.Errorf("nodes = %d, want 0 after expiry", st.Nodes)
	}
}

// TestMissedDeadlineBoundaries pins the confirmation-grace semantics:
// work confirmed at doneSlot actually ran during slot doneSlot-1, so a
// job confirmed one slot after its deadline still made it, and a job
// with doneSlot <= 0 (never really ran, e.g. confirmed before the first
// tick) can never be reported missed.
func TestMissedDeadlineBoundaries(t *testing.T) {
	const slot = 10 * time.Second
	cases := []struct {
		name     string
		deadline time.Duration
		done     bool
		doneSlot int64
		nowSlot  int64
		want     bool
	}{
		{"pending before deadline", 30 * time.Second, false, 0, 3, false},
		{"pending past deadline", 30 * time.Second, false, 0, 4, true},
		{"never started at slot zero", 30 * time.Second, false, 0, 0, false},
		{"done at slot zero", 30 * time.Second, true, 0, 10, false},
		{"done at slot one ran during slot zero", 0, true, 1, 10, false},
		{"confirmed exactly one slot after deadline", 30 * time.Second, true, 4, 10, false},
		{"confirmed two slots after deadline", 30 * time.Second, true, 5, 10, true},
		{"zero deadline confirmed late", 0, true, 3, 10, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := missedDeadline(c.deadline, c.done, c.doneSlot, c.nowSlot, slot); got != c.want {
				t.Errorf("missedDeadline(%v, done=%v, doneSlot=%d, now=%d) = %v, want %v",
					c.deadline, c.done, c.doneSlot, c.nowSlot, got, c.want)
			}
		})
	}
}

// TestNodeExpiryRequeuesPendingWork checks that expiry of a node that
// still has quanta queued (never launched) returns that volume too.
func TestNodeExpiryRequeuesPendingWork(t *testing.T) {
	rm, err := New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO(), NodeExpiry: 25 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	base := time.Now()
	if _, err := rm.RegisterNode(rmproto.RegisterNodeRequest{
		NodeID: "n1", Capacity: rmproto.Resources{VCores: 8, MemoryMB: 16 * 1024},
	}, base); err != nil {
		t.Fatalf("RegisterNode: %v", err)
	}
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "q", Tasks: 4, TaskDurSec: 20, DemandVCores: 1, DemandMemMB: 512,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}
	// Tick queues quanta on n1's pending list; the node never heartbeats
	// to pick them up and expires.
	if err := rm.Tick(base); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if st := rm.Status(); st.OutstandingLeases == 0 {
		t.Fatal("no leases queued")
	}
	if err := rm.Tick(base.Add(60 * time.Second)); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	st := rm.Status()
	if st.Nodes != 0 {
		t.Fatalf("nodes = %d, want 0", st.Nodes)
	}
	if st.OutstandingLeases != 0 {
		t.Errorf("outstanding leases = %d after eviction, want 0", st.OutstandingLeases)
	}
	if st.Faults.RequeuedQuanta == 0 {
		t.Error("pending quanta were not requeued on node expiry")
	}
}

// TestTickJournalsRequeuesInSortedOrder: the requeue list of a tick
// record is collected by walking the node and lease maps; it must be
// journaled sorted, or one run writes different WAL bytes each time.
func TestTickJournalsRequeuesInSortedOrder(t *testing.T) {
	rm, err := New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO(), NodeExpiry: 25 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	base := time.Now()
	for _, id := range []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"} {
		if _, err := rm.RegisterNode(rmproto.RegisterNodeRequest{
			NodeID: id, Capacity: rmproto.Resources{VCores: 2, MemoryMB: 4 * 1024},
		}, base); err != nil {
			t.Fatalf("RegisterNode: %v", err)
		}
	}
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "q", Tasks: 16, TaskDurSec: 20, DemandVCores: 1, DemandMemMB: 512,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}
	if err := rm.Tick(base); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	// Every node expires at once, each holding a lease.
	rm.mu.Lock()
	rec, _, _, err := rm.tickLocked(base.Add(60 * time.Second))
	rm.mu.Unlock()
	if err != nil {
		t.Fatalf("tickLocked: %v", err)
	}
	if len(rec.Requeued) < 6 {
		t.Fatalf("requeued %d quanta, want the leases of eight nodes", len(rec.Requeued))
	}
	if !sort.StringsAreSorted(rec.Requeued) {
		t.Errorf("tick record requeues not sorted: %v", rec.Requeued)
	}
}

// TestHTTPEndToEnd drives the whole HTTP surface — register, submit,
// manual ticks, heartbeats, status — through a real httptest server and
// the Client.
func TestHTTPEndToEnd(t *testing.T) {
	rm := newRM(t, sched.NewEDF())
	ts := httptest.NewServer(rm.Handler())
	defer ts.Close()
	ctx := context.Background()
	client := NewClient(ts.URL, ts.Client())

	if _, err := client.RegisterNode(ctx, rmproto.RegisterNodeRequest{
		NodeID:   "n1",
		Capacity: rmproto.Resources{VCores: 16, MemoryMB: 32 * 1024},
	}); err != nil {
		t.Fatalf("RegisterNode: %v", err)
	}
	if _, err := client.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	if _, err := client.SubmitAdHoc(ctx, rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "q1", Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 512,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}

	var running []string
	for slot := 0; slot < 100; slot++ {
		if err := client.Tick(ctx); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		hb, err := client.Heartbeat(ctx, rmproto.HeartbeatRequest{NodeID: "n1", Completed: running})
		if err != nil {
			t.Fatalf("Heartbeat: %v", err)
		}
		running = running[:0]
		for _, q := range hb.Launch {
			running = append(running, q.ID)
		}
		st, err := client.Status(ctx)
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		done := len(st.Jobs) == 3
		for _, j := range st.Jobs {
			if j.State != "completed" {
				done = false
			}
		}
		if done {
			return
		}
	}
	t.Fatal("jobs did not complete within 100 slots")
}

func TestHTTPErrors(t *testing.T) {
	rm := newRM(t, sched.NewFIFO())
	ts := httptest.NewServer(rm.Handler())
	defer ts.Close()
	ctx := context.Background()
	client := NewClient(ts.URL, ts.Client())

	if _, err := client.Heartbeat(ctx, rmproto.HeartbeatRequest{NodeID: "ghost"}); err == nil {
		t.Error("heartbeat from unknown node succeeded over HTTP")
	}
	if _, err := client.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{}); err == nil {
		t.Error("empty workflow accepted over HTTP")
	}
}

// gatedRM is a store-backed RM with the ad-hoc gate on, one 8-core node,
// and the one plan revision its first tick published: the gate admits an
// ad-hoc job that fits the leftover and turns the rest away with
// accepted=false. Its journal, in a directory of the test's own, never
// syncs.
func gatedRM(t testing.TB) *Server {
	t.Helper()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Policy: store.SyncNever})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	cfg := core.DefaultConfig()
	cfg.StreamPlans = true
	rm, err := New(Config{SlotDur: slotDur, Scheduler: core.New(cfg), AdHocGate: true, Store: st})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	register(t, rm, "n1", 8, 16*1024)
	tick(t, rm)
	return rm
}

// rawAdHoc and rawWorkflow spell a submission body field by field, each
// integer as the varint of its two's-complement bits: a non-negative
// record comes out as the client would send it, and a negative figure as
// the number past MaxInt64 a client that wrapped it would send.
func rawAdHoc(r trace.AdHocRecord) []byte {
	w := binenc.Writer{}
	w.String(r.ID)
	for _, v := range []int64{r.SubmitSec, int64(r.Tasks), r.TaskDurSec, r.DemandVCores, r.DemandMemMB} {
		w.Uint(uint64(v))
	}
	return w.Buf
}

func rawWorkflow(r trace.WorkflowRecord) []byte {
	w := binenc.Writer{}
	w.String(r.ID)
	w.Uint(uint64(r.SubmitSec))
	w.Uint(uint64(r.DeadlineSec))
	w.Uint(uint64(len(r.Jobs)))
	for _, j := range r.Jobs {
		w.String(j.Name)
		for _, v := range []int64{int64(j.Tasks), j.TaskDurSec, j.ActualTaskDurSec, j.DemandVCores, j.DemandMemMB} {
			w.Uint(uint64(v))
		}
	}
	w.Uint(uint64(len(r.Deps)))
	for _, d := range r.Deps {
		w.Uint(uint64(d[0]))
		w.Uint(uint64(d[1]))
	}
	return w.Buf
}

// FuzzSubmitBody posts arbitrary binary bodies to POST /v1/workflows and
// /v1/adhoc, each on its own gatedRM. Whatever arrives — a feasible
// workflow, an infeasible one (admitted best-effort), a cycle, a job the
// gate turns away, negative, overflowing or wrapping figures, two
// submissions back to back, trailing or torn bytes, JSON — the answer is a
// 4xx with an error body or a 200, and a 200 only for a body that decodes
// and re-encodes to itself. A 200 that accepts puts the job, or every job
// of the workflow, in Status exactly once with the books balanced, and the
// same body again is a 4xx duplicate that changes nothing; any other
// answer leaves Status empty and is given again.
func FuzzSubmitBody(f *testing.F) {
	job := func(name string) trace.JobRecord {
		return trace.JobRecord{Name: name, Tasks: 4, TaskDurSec: 30, DemandVCores: 1, DemandMemMB: 1024}
	}
	wf := func(id string, deadlineSec int64, deps [][2]int, jobs ...trace.JobRecord) []byte {
		return rawWorkflow(trace.WorkflowRecord{ID: id, DeadlineSec: deadlineSec, Jobs: jobs, Deps: deps})
	}
	adhoc := func(id string, tasks int, durSec int64) []byte {
		return rawAdHoc(trace.AdHocRecord{ID: id, Tasks: tasks, TaskDurSec: durSec, DemandVCores: 1, DemandMemMB: 512})
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	wrapped := func(sec int64) trace.JobRecord {
		j := job("a")
		j.TaskDurSec = sec
		return j
	}
	for _, seed := range [][]byte{
		wf("wf", 600, [][2]int{{0, 1}}, job("a"), job("b")),
		wf("wf", 5, nil, job("a")),
		wf("wf", 600, [][2]int{{0, 1}, {1, 0}}, job("a"), job("b")),
		wf("wf", 600, [][2]int{{0, 7}}, job("a")),
		wf("wf", math.MaxInt64, nil, job("a")),
		wf("", 600, nil),
		adhoc("a", 2, 10),
		rawAdHoc(trace.AdHocRecord{ID: "big", Tasks: 64, TaskDurSec: 36000, DemandVCores: 8, DemandMemMB: 1024}),
		adhoc("a", -1, 10),
		rawAdHoc(trace.AdHocRecord{ID: "a", SubmitSec: -5, Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 512}),
		rawAdHoc(trace.AdHocRecord{ID: "a", Tasks: math.MaxInt64, TaskDurSec: math.MaxInt64, DemandVCores: 1, DemandMemMB: 1}),
		adhoc("", 1, 10),
		cat(adhoc("a", 1, 10), []byte{1}),
		cat(adhoc("a", 1, 10), adhoc("b", 1, 10)),
		cat(wf("w1", 600, nil, job("a")), wf("w2", 600, nil, job("a"))),
		cat(adhoc("a", 1, 10), []byte("\n")),
		[]byte(`{}`), []byte(`[]`), []byte(`null`), {}, []byte(`{"job":`), []byte("\x00\xff"),
		// Second counts time.Duration(sec)*time.Second would wrap to 0.71 s
		// and 0.29 s.
		adhoc("a", 1, -18446744073),
		adhoc("a", 1, 18446744074),
		wf("wf", 600, nil, wrapped(-18446744073)),
		wf("wf", 600, nil, wrapped(18446744074)),
		adhoc("a", 1, 10)[:4],
		bytes.Repeat([]byte{0xff}, 11),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{rmproto.PathWorkflows, rmproto.PathAdHoc} {
			rm := gatedRM(t)
			h := rm.Handler()
			post := func() (int, rmproto.SubmitResponse, string) {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				req.Header.Set("Content-Type", rmproto.SubmitMediaType)
				h.ServeHTTP(rec, req)
				if rec.Code == http.StatusOK {
					resp, err := rmproto.DecodeSubmitResponse(rec.Body.Bytes())
					if err != nil {
						t.Fatalf("%s %q: 200 with undecodable body %q: %v", path, body, rec.Body, err)
					}
					return rec.Code, resp, ""
				}
				var e rmproto.Error
				if rec.Code < 400 || rec.Code > 499 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Message == "" {
					t.Fatalf("%s %q: status %d with body %q", path, body, rec.Code, rec.Body)
				}
				return rec.Code, rmproto.SubmitResponse{}, e.Message
			}
			code, resp, _ := post()
			checkBooks(t, rm, "after the body")
			before := rm.Status()
			if code == http.StatusOK {
				id, jobs, re := decodeSubmitBody(t, path, body)
				if !bytes.Equal(re, body) {
					t.Fatalf("%s %q: 200 for a body that re-encodes to %q", path, body, re)
				}
				if resp.Accepted {
					for i, j := range before.Jobs {
						if i > 0 && before.Jobs[i-1].ID == j.ID || j.ID != id && j.WorkflowID != id {
							t.Fatalf("%s %q: accepted %s, and Status lists %+v", path, body, id, before.Jobs)
						}
					}
					if len(before.Jobs) != jobs {
						t.Fatalf("%s %q: accepted %s with %d jobs, Status lists %d", path, body, id, jobs, len(before.Jobs))
					}
				}
			}
			if !resp.Accepted && len(before.Jobs) != 0 {
				t.Fatalf("%s %q: answered %d %+v, and Status lists %+v", path, body, code, resp, before.Jobs)
			}
			again, resp2, msg := post()
			checkBooks(t, rm, "after the body again")
			if resp.Accepted {
				if again == http.StatusOK || !strings.Contains(msg, "duplicate") {
					t.Fatalf("%s %q: accepted, then answered %d %+v %q; want a duplicate 4xx", path, body, again, resp2, msg)
				}
			} else if again != code || resp2 != resp {
				t.Fatalf("%s %q: answered %d %+v, then %d %+v", path, body, code, resp, again, resp2)
			}
			sameJobTable(t, path+" after the body again", rm.Status().Jobs, before.Jobs)
		}
	})
}

// decodeSubmitBody decodes a body the RM answered with a 200 as path's
// request and returns the ID it submits, its job count and its encoding.
func decodeSubmitBody(t *testing.T, path string, body []byte) (id string, jobs int, re []byte) {
	t.Helper()
	var err error
	if path == rmproto.PathWorkflows {
		var req rmproto.SubmitWorkflowRequest
		if req, err = rmproto.DecodeSubmitWorkflowRequest(body); err == nil {
			id, jobs = req.Workflow.ID, len(req.Workflow.Jobs)
			re, err = rmproto.AppendSubmitWorkflowRequest(nil, req)
		}
	} else {
		var req rmproto.SubmitAdHocRequest
		if req, err = rmproto.DecodeSubmitAdHocRequest(body); err == nil {
			id, jobs = rmproto.AdHocJobID(req.Job.ID), 1
			re, err = rmproto.AppendSubmitAdHocRequest(nil, req)
		}
	}
	if err != nil {
		t.Fatalf("%s %q: answered 200, yet %v", path, body, err)
	}
	return id, jobs, re
}
