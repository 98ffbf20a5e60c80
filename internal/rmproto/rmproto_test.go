package rmproto

import (
	"encoding/json"
	"testing"

	"flowtime/internal/resource"
)

func TestResourcesRoundTrip(t *testing.T) {
	v := resource.New(8, 16384)
	wire := FromVector(v)
	if got := wire.ToVector(); got != v {
		t.Errorf("round trip = %v, want %v", got, v)
	}
	if err := wire.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := (Resources{VCores: -1}).Validate(); err == nil {
		t.Error("negative resources accepted")
	}
}

func TestWireJSONStability(t *testing.T) {
	// The wire format is part of the public protocol; field names must not
	// drift. (Heartbeat bodies are binary: TestHeartbeatCodecRoundTrip pins
	// their bytes.) The status response's job blocks: live jobs in "jobs", completed
	// ones in "done" behind the cursor fields, counts in "summary".
	live := JobStatus{ID: "wf/b#1", Kind: "deadline", WorkflowID: "wf", State: "running",
		Delivered: Resources{VCores: 1, MemoryMB: 512}, Total: Resources{VCores: 2, MemoryMB: 1024}, DeadlineSec: 600}
	done := JobStatus{ID: "wf/a#0", Kind: "deadline", WorkflowID: "wf", State: "completed",
		Delivered: Resources{VCores: 2, MemoryMB: 1024}, Total: Resources{VCores: 2, MemoryMB: 1024},
		DeadlineSec: 300, CompletedSec: 310, Missed: true}
	st := StatusResponse{Slot: 40, Nodes: 1, Jobs: []JobStatus{live},
		Done:    &DoneJobs{Instance: "00000000deadbeef", From: 7, Total: 8, Jobs: []JobStatus{done}},
		Summary: JobSummary{Running: 1, Completed: 8, Missed: 1}}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	want := `{"slot":40,"nodes":1,"capacity":{"vcores":0,"memory_mb":0},` +
		`"jobs":[{"id":"wf/b#1","kind":"deadline","workflow_id":"wf","state":"running","delivered":{"vcores":1,"memory_mb":512},"total":{"vcores":2,"memory_mb":1024},"deadline_sec":600}],` +
		`"done":{"instance":"00000000deadbeef","from":7,"total":8,"jobs":[{"id":"wf/a#0","kind":"deadline","workflow_id":"wf","state":"completed","delivered":{"vcores":2,"memory_mb":1024},"total":{"vcores":2,"memory_mb":1024},"deadline_sec":300,"completed_sec":310,"missed":true}]},` +
		`"summary":{"pending":0,"running":1,"completed":8,"missed":1},` +
		`"outstanding_leases":0,"faults":{"requeued_quanta":0,"expired_nodes":0,"scheduler_panics":0,"stale_confirms":0,"best_effort_admissions":0}}`
	if string(raw) != want {
		t.Errorf("wire JSON = %s, want %s", raw, want)
	}
}

func TestFold(t *testing.T) {
	job := func(id string) JobStatus { return JobStatus{ID: id} }
	live := []JobStatus{job("b"), job("d")}
	archive := []JobStatus{job("e"), job("a"), job("c")} // completion order
	st := StatusResponse{Jobs: live, Done: &DoneJobs{Total: 3, Jobs: archive}}
	st.Fold(archive)
	var ids string
	for _, j := range st.Jobs {
		ids += j.ID
	}
	if ids != "abcde" || st.Done != nil {
		t.Errorf("folded to %q with done block %v, want abcde and none", ids, st.Done)
	}
	st.Jobs[0].ID = "scribbled"
	if live[0].ID != "b" || archive[1].ID != "a" {
		t.Error("Fold's result aliases its inputs")
	}
}

func TestFaultWireJSONStability(t *testing.T) {
	// Fault-tolerance additions are protocol surface too: drain responses
	// and coded errors must not drift (a lease's deadline slot travels in
	// the binary heartbeat reply, whose bytes TestHeartbeatCodecRoundTrip
	// pins).
	dr := DrainResponse{Draining: true, Complete: false, OutstandingLeases: 3, UnfinishedJobs: []string{"adhoc/q"}}
	raw, err := json.Marshal(dr)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	want := `{"draining":true,"complete":false,"outstanding_leases":3,"unfinished_jobs":["adhoc/q"]}`
	if string(raw) != want {
		t.Errorf("wire JSON = %s, want %s", raw, want)
	}

	e := Error{Message: "unknown node", Code: CodeUnknownNode}
	raw, err = json.Marshal(e)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	want = `{"error":"unknown node","code":"unknown_node"}`
	if string(raw) != want {
		t.Errorf("wire JSON = %s, want %s", raw, want)
	}
}
