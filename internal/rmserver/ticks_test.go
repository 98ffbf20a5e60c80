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
