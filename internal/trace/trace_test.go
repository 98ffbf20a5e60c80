package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

func sampleWorkload(t *testing.T) ([]*workflow.Workflow, []workflow.AdHoc) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var wfs []*workflow.Workflow
	for i, shape := range []workload.Shape{workload.ShapeDiamond, workload.ShapeMontage} {
		w, err := workload.GenerateWorkflow(rng, workload.WorkflowSpec{
			ID:             shape.String(),
			Shape:          shape,
			Jobs:           8,
			Submit:         time.Duration(i) * time.Minute,
			DeadlineFactor: 2,
		})
		if err != nil {
			t.Fatalf("GenerateWorkflow: %v", err)
		}
		wfs = append(wfs, w)
	}
	if err := workload.InjectEstimationError(rng, wfs[:1], 0.1, 0.2, 0.5); err != nil {
		t.Fatalf("InjectEstimationError: %v", err)
	}
	adhoc, err := workload.GenerateAdHoc(rng, workload.AdHocSpec{
		Count: 10, MeanInterarrival: 20 * time.Second,
		MinTasks: 1, MaxTasks: 4,
		MinTaskDur: 10 * time.Second, MaxTaskDur: 30 * time.Second,
		Demand: resource.New(1, 256),
	})
	if err != nil {
		t.Fatalf("GenerateAdHoc: %v", err)
	}
	return wfs, adhoc
}

func TestRoundTrip(t *testing.T) {
	wfs, adhoc := sampleWorkload(t)
	tr, err := FromWorkload(wfs, adhoc)
	if err != nil {
		t.Fatalf("FromWorkload: %v", err)
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	wfs2, adhoc2, err := back.ToWorkload()
	if err != nil {
		t.Fatalf("ToWorkload: %v", err)
	}

	if len(wfs2) != len(wfs) || len(adhoc2) != len(adhoc) {
		t.Fatalf("counts changed: %d/%d workflows, %d/%d adhoc",
			len(wfs2), len(wfs), len(adhoc2), len(adhoc))
	}
	for i, w := range wfs {
		w2 := wfs2[i]
		if w2.ID != w.ID || w2.Submit != w.Submit || w2.Deadline != w.Deadline {
			t.Errorf("workflow %d header changed: %+v vs %+v", i, w2, w)
		}
		if w2.NumJobs() != w.NumJobs() {
			t.Fatalf("workflow %d jobs %d != %d", i, w2.NumJobs(), w.NumJobs())
		}
		for j := 0; j < w.NumJobs(); j++ {
			if w.Job(j) != w2.Job(j) {
				t.Errorf("workflow %d job %d changed: %+v vs %+v", i, j, w2.Job(j), w.Job(j))
			}
		}
		if w.DAG().NumEdges() != w2.DAG().NumEdges() {
			t.Errorf("workflow %d edges %d != %d", i, w2.DAG().NumEdges(), w.DAG().NumEdges())
		}
	}
	for i := range adhoc {
		if adhoc[i] != adhoc2[i] {
			t.Errorf("adhoc %d changed: %+v vs %+v", i, adhoc2[i], adhoc[i])
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	tests := []struct {
		name string
		body string
	}{
		{"not json", "nope"},
		{"wrong version", `{"version": 99, "workflows": [], "adhoc": []}`},
		{"unknown field", `{"version": 1, "bogus": true}`},
		{"invalid workflow", `{"version": 1, "workflows": [{"id": "", "submit_sec": 0, "deadline_sec": 10, "jobs": [], "deps": []}], "adhoc": []}`},
		{"cyclic deps", `{"version": 1, "workflows": [{"id": "w", "submit_sec": 0, "deadline_sec": 100,
			"jobs": [{"name":"a","tasks":1,"task_dur_sec":10,"demand_vcores":1,"demand_mem_mb":1},
			         {"name":"b","tasks":1,"task_dur_sec":10,"demand_vcores":1,"demand_mem_mb":1}],
			"deps": [[0,1],[1,0]]}], "adhoc": []}`},
		{"invalid adhoc", `{"version": 1, "workflows": [], "adhoc": [{"id": "", "submit_sec": 0, "tasks": 1, "task_dur_sec": 1, "demand_vcores": 1, "demand_mem_mb": 1}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tt.body)); err == nil {
				t.Error("Read accepted bad input")
			}
		})
	}
}

func TestFromWorkloadValidates(t *testing.T) {
	bad := workflow.New("", 0, time.Minute) // empty ID
	bad.AddJob(workflow.Job{Name: "j", Tasks: 1, TaskDuration: time.Second, TaskDemand: resource.New(1, 1)})
	if _, err := FromWorkload([]*workflow.Workflow{bad}, nil); err == nil {
		t.Error("FromWorkload accepted invalid workflow")
	}
	if _, err := FromWorkload(nil, []workflow.AdHoc{{}}); err == nil {
		t.Error("FromWorkload accepted invalid adhoc job")
	}
}

// TestSecondsDoNotWrap: a record's second counts are [0, MaxInt64/1e9];
// one outside, which time.Duration(sec)*time.Second would wrap to a small
// positive duration, is refused naming its field, and the largest one in
// range converts exactly.
func TestSecondsDoNotWrap(t *testing.T) {
	const maxSec = 9223372036
	job := JobRecord{Name: "a", Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 1}
	for _, sec := range []int64{-18446744073, 18446744074, -1, maxSec + 1} {
		for field, wf := range map[string]WorkflowRecord{
			"submit_sec":          {ID: "w", SubmitSec: sec, DeadlineSec: 600, Jobs: []JobRecord{job}},
			"deadline_sec":        {ID: "w", DeadlineSec: sec, Jobs: []JobRecord{job}},
			"task_dur_sec":        {ID: "w", DeadlineSec: 600, Jobs: []JobRecord{{Name: "a", Tasks: 1, TaskDurSec: sec, DemandVCores: 1}}},
			"actual_task_dur_sec": {ID: "w", DeadlineSec: 600, Jobs: []JobRecord{{Name: "a", Tasks: 1, TaskDurSec: 10, ActualTaskDurSec: sec, DemandVCores: 1}}},
		} {
			if _, err := wf.ToWorkflow(); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("workflow with %s = %d: %v, want a refusal naming the field", field, sec, err)
			}
		}
		for field, a := range map[string]AdHocRecord{
			"submit_sec":   {ID: "a", SubmitSec: sec, Tasks: 1, TaskDurSec: 10, DemandVCores: 1},
			"task_dur_sec": {ID: "a", Tasks: 1, TaskDurSec: sec, DemandVCores: 1},
		} {
			if _, _, err := (&Trace{Version: FormatVersion, AdHoc: []AdHocRecord{a}}).ToWorkload(); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("ad-hoc job with %s = %d: %v, want a refusal naming the field", field, sec, err)
			}
		}
	}
	a, err := AdHocRecord{ID: "a", Tasks: 1, TaskDurSec: maxSec, DemandVCores: 1}.ToAdHoc()
	if err != nil || a.TaskDuration != maxSec*time.Second {
		t.Errorf("task_dur_sec = %d: %v, %v", maxSec, a.TaskDuration, err)
	}
}

func TestVersionGate(t *testing.T) {
	// A v1 document (no meta) is still accepted.
	v1 := `{"version":1,"workflows":[],"adhoc":[]}`
	if _, err := Read(strings.NewReader(v1)); err != nil {
		t.Fatalf("v1 rejected: %v", err)
	}

	// A future version is refused loudly, even when it carries unknown
	// fields.
	future := `{"version":99,"hologram":true,"workflows":[],"adhoc":[]}`
	_, err := Read(strings.NewReader(future))
	if err == nil || !strings.Contains(err.Error(), "unknown future version 99") {
		t.Fatalf("Read future version: err = %v", err)
	}

	// Version zero and missing versions are invalid.
	if _, err := Read(strings.NewReader(`{"version":0,"workflows":[],"adhoc":[]}`)); err == nil {
		t.Fatal("version 0 accepted")
	}
	if _, err := Read(strings.NewReader(`{"workflows":[],"adhoc":[]}`)); err == nil {
		t.Fatal("document without a version accepted")
	}
}

func sampleAh(id string) AdHocRecord {
	return AdHocRecord{ID: id, SubmitSec: 42, Tasks: 3, TaskDurSec: 20, DemandVCores: 1, DemandMemMB: 256}
}

// TestStreamedDocumentTruncated: a document cut short on its way to Read
// is an error, not a shorter trace.
func TestStreamedDocumentTruncated(t *testing.T) {
	tr := &Trace{Version: FormatVersion, AdHoc: []AdHocRecord{sampleAh("a0"), sampleAh("a1"), sampleAh("a2")}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{buf.Len() / 2, buf.Len() - 3} {
		if _, err := Read(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("document cut at %d of %d bytes read without error", cut, buf.Len())
		}
	}
}

func TestMetaRoundTripBatch(t *testing.T) {
	tr := &Trace{
		Version: FormatVersion,
		Meta:    &Meta{Generator: "ftgen", Seed: 3},
		AdHoc:   []AdHocRecord{sampleAh("x")},
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta == nil || back.Meta.Generator != "ftgen" || back.Meta.Seed != 3 {
		t.Fatalf("meta = %+v", back.Meta)
	}
}
