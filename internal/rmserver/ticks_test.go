package rmserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"flowtime/internal/core"
	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/trace"
)

// TestTickRingRecordsEachTick: every tick of a FlowTime RM leaves one
// record in the ring, served at GET /v1/debug/ticks oldest first: the
// first one, whose Assign planned the submitted work, with its cause and
// its flow work, and the ticks that did not replan with none. The ring
// keeps the last 256 ticks.
func TestTickRingRecordsEachTick(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
	c.register("n1", 8, 16*1024)
	submitAdHoc(t, c.rm, "a", 4, 30)
	if _, err := c.rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(3600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	c.run(3)

	srv := httptest.NewServer(c.rm.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + rmproto.PathDebugTicks)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ticks []TickRecord
	if err := json.NewDecoder(resp.Body).Decode(&ticks); err != nil {
		t.Fatalf("decode %s: %v", rmproto.PathDebugTicks, err)
	}
	if len(ticks) != 3 {
		t.Fatalf("%d tick records after 3 ticks, want 3", len(ticks))
	}
	for i, tr := range ticks {
		if tr.Slot != int64(i+1) {
			t.Errorf("record %d is of slot %d, want %d", i, tr.Slot, i+1)
		}
		if tr.Decide < 0 || tr.Place < 0 || tr.Journal < 0 || tr.Commit < 0 {
			t.Errorf("record %d has a negative phase: %+v", i, tr)
		}
	}
	first := ticks[0].Replan
	if first.Cause != sched.ReplanUrgent || first.Slot != 0 {
		t.Errorf("first tick's replan = %+v, want the urgent one at slot 0", first)
	}
	if first.Work[0].MaxFlows == 0 || first.Work[0].ArcsScanned == 0 {
		t.Errorf("first tick's vcores flow work = %+v, want stage A's and B's max flows", first.Work[0])
	}
	if last := ticks[2].Replan; last.Cause != "" || !reflect.DeepEqual(last, sched.ReplanStats{}) {
		t.Errorf("a tick that did not replan recorded %+v", last)
	}

	c.run(tickRingSize)
	ticks = c.rm.Ticks()
	if len(ticks) != tickRingSize || ticks[0].Slot != 4 || ticks[len(ticks)-1].Slot != 3+tickRingSize {
		t.Errorf("after %d ticks the ring holds %d records, slots %d to %d; want the last %d",
			3+tickRingSize, len(ticks), ticks[0].Slot, ticks[len(ticks)-1].Slot, tickRingSize)
	}
}

// TestHandOffRefusalsAreTicked: a hand-off whose whole task fits on no
// node counts in its slot's tick record, served at GET /v1/debug/ticks.
// a then b on two nodes of 4 vcores; b's one task takes 6. At slot 2's
// tick a's quantum is in flight, so FlowTime offers b the 6 idle vcores;
// n1's confirm completes a and dispatches the offer, which lapses: neither
// n1 nor n2 holds the task. The tick refused nothing of its own.
func TestHandOffRefusalsAreTicked(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
	c.register("n1", 4, 16*1024)
	c.register("n2", 4, 16*1024)
	if _, err := c.rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: trace.WorkflowRecord{
		ID: "wf", DeadlineSec: 3600,
		Jobs: []trace.JobRecord{
			{Name: "a", Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 1024},
			{Name: "b", Tasks: 1, TaskDurSec: 10, DemandVCores: 6, DemandMemMB: 1024},
		},
		Deps: [][2]int{{0, 1}},
	}}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	c.run(2)
	if got := handOffs(c.rm); got != [2]int64{0, 1} {
		t.Fatalf("hand-offs (dispatched, lapsed) = %v, want [0 1]", got)
	}

	srv := httptest.NewServer(c.rm.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + rmproto.PathDebugTicks)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ticks []TickRecord
	if err := json.NewDecoder(resp.Body).Decode(&ticks); err != nil {
		t.Fatalf("decode %s: %v", rmproto.PathDebugTicks, err)
	}
	if len(ticks) != 2 || ticks[0].Refused != 0 || ticks[1].Slot != 2 || ticks[1].Refused != 1 {
		t.Errorf("tick records %+v, want slot 2's to count the one task the hand-off refused", ticks)
	}
}
