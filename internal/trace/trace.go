// Package trace defines a JSON interchange format for FlowTime workloads —
// the stand-in for the paper's proprietary Huawei production traces. A
// trace captures recurring deadline-aware workflows (with both estimated
// and actual task durations, so estimation error round-trips) and the
// ad-hoc job stream. ftgen writes it, the public-trace converters of
// internal/scenario return it, and ftsim and the trace-replay experiments
// replay it into the simulator.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/workflow"
)

// FormatVersion identifies the current trace schema. Version history:
//
//	1 — workflows + adhoc arrays.
//	2 — adds the optional self-describing "meta" block (generator name,
//	    seed, creation params) so replays carry their own provenance.
//
// Readers accept every version up to FormatVersion (a v1 document is a
// valid v2 document with no meta) and refuse unknown future versions
// loudly instead of guessing.
const FormatVersion = 2

// Meta is the trace's provenance block: which generator (or loader)
// produced it, from what seed, with what parameters. It makes a replay
// self-describing — the exact generating command can be reconstructed
// from the document alone.
type Meta struct {
	// Generator names the producing tool or scenario ("ftgen",
	// "scenario/diurnal", "loader/alibaba2018", ...).
	Generator string `json:"generator,omitempty"`
	// Seed is the RNG seed the generator ran with (0 if not seeded).
	Seed int64 `json:"seed,omitempty"`
	// Params records the creation parameters as stable key/value pairs.
	Params map[string]string `json:"params,omitempty"`
}

// Trace is the top-level document.
type Trace struct {
	// Version must be in [1, FormatVersion].
	Version int `json:"version"`
	// Meta is the optional provenance block (schema v2+).
	Meta *Meta `json:"meta,omitempty"`
	// Workflows are the deadline-aware workflows.
	Workflows []WorkflowRecord `json:"workflows"`
	// AdHoc is the ad-hoc job stream.
	AdHoc []AdHocRecord `json:"adhoc"`
}

// checkVersion validates a document version against what this reader
// understands.
func checkVersion(v int) error {
	if v < 1 {
		return fmt.Errorf("trace: invalid version %d", v)
	}
	if v > FormatVersion {
		return fmt.Errorf("trace: unknown future version %d (this reader understands <= %d); refusing to guess at its semantics", v, FormatVersion)
	}
	return nil
}

// WorkflowRecord serializes one workflow.
type WorkflowRecord struct {
	ID          string      `json:"id"`
	SubmitSec   int64       `json:"submit_sec"`
	DeadlineSec int64       `json:"deadline_sec"`
	Jobs        []JobRecord `json:"jobs"`
	// Deps lists [from, to] job-index pairs.
	Deps [][2]int `json:"deps"`
}

// JobRecord serializes one workflow job.
type JobRecord struct {
	Name             string `json:"name"`
	Tasks            int    `json:"tasks"`
	TaskDurSec       int64  `json:"task_dur_sec"`
	ActualTaskDurSec int64  `json:"actual_task_dur_sec,omitempty"`
	DemandVCores     int64  `json:"demand_vcores"`
	DemandMemMB      int64  `json:"demand_mem_mb"`
}

// AdHocRecord serializes one ad-hoc job.
type AdHocRecord struct {
	ID           string `json:"id"`
	SubmitSec    int64  `json:"submit_sec"`
	Tasks        int    `json:"tasks"`
	TaskDurSec   int64  `json:"task_dur_sec"`
	DemandVCores int64  `json:"demand_vcores"`
	DemandMemMB  int64  `json:"demand_mem_mb"`
}

// FromWorkload converts in-memory workload objects into a trace.
func FromWorkload(wfs []*workflow.Workflow, adhoc []workflow.AdHoc) (*Trace, error) {
	t := &Trace{Version: FormatVersion}
	for _, w := range wfs {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		rec := WorkflowRecord{
			ID:          w.ID,
			SubmitSec:   int64(w.Submit / time.Second),
			DeadlineSec: int64(w.Deadline / time.Second),
		}
		for i := 0; i < w.NumJobs(); i++ {
			j := w.Job(i)
			rec.Jobs = append(rec.Jobs, JobRecord{
				Name:             j.Name,
				Tasks:            j.Tasks,
				TaskDurSec:       int64(j.TaskDuration / time.Second),
				ActualTaskDurSec: int64(j.ActualTaskDuration / time.Second),
				DemandVCores:     j.TaskDemand.Get(resource.VCores),
				DemandMemMB:      j.TaskDemand.Get(resource.MemoryMB),
			})
		}
		dag := w.DAG()
		for from := 0; from < dag.NumNodes(); from++ {
			for _, to := range dag.Successors(from) {
				rec.Deps = append(rec.Deps, [2]int{from, to})
			}
		}
		t.Workflows = append(t.Workflows, rec)
	}
	for _, a := range adhoc {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		t.AdHoc = append(t.AdHoc, AdHocRecord{
			ID:           a.ID,
			SubmitSec:    int64(a.Submit / time.Second),
			Tasks:        a.Tasks,
			TaskDurSec:   int64(a.TaskDuration / time.Second),
			DemandVCores: a.TaskDemand.Get(resource.VCores),
			DemandMemMB:  a.TaskDemand.Get(resource.MemoryMB),
		})
	}
	return t, nil
}

// ToWorkload converts a trace back into workload objects, validating
// everything.
func (t *Trace) ToWorkload() ([]*workflow.Workflow, []workflow.AdHoc, error) {
	if err := checkVersion(t.Version); err != nil {
		return nil, nil, err
	}
	wfs := make([]*workflow.Workflow, 0, len(t.Workflows))
	for _, rec := range t.Workflows {
		w, err := rec.ToWorkflow()
		if err != nil {
			return nil, nil, err
		}
		wfs = append(wfs, w)
	}
	adhoc := make([]workflow.AdHoc, 0, len(t.AdHoc))
	for _, ar := range t.AdHoc {
		a, err := ar.ToAdHoc()
		if err != nil {
			return nil, nil, err
		}
		adhoc = append(adhoc, a)
	}
	return wfs, adhoc, nil
}

// ToWorkflow converts one workflow record into the workload object,
// validating it.
func (rec WorkflowRecord) ToWorkflow() (*workflow.Workflow, error) {
	var err error
	w := workflow.New(rec.ID, seconds("submit_sec", rec.SubmitSec, &err), seconds("deadline_sec", rec.DeadlineSec, &err))
	for _, jr := range rec.Jobs {
		w.AddJob(workflow.Job{
			Name:               jr.Name,
			Tasks:              jr.Tasks,
			TaskDuration:       seconds("task_dur_sec", jr.TaskDurSec, &err),
			ActualTaskDuration: seconds("actual_task_dur_sec", jr.ActualTaskDurSec, &err),
			TaskDemand:         resource.New(jr.DemandVCores, jr.DemandMemMB),
		})
	}
	for _, d := range rec.Deps {
		w.AddDep(d[0], d[1])
	}
	if err != nil {
		return nil, fmt.Errorf("trace: workflow %s: %w", rec.ID, err)
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return w, nil
}

// ToAdHoc converts one ad-hoc record into the workload object, validating
// it.
func (ar AdHocRecord) ToAdHoc() (workflow.AdHoc, error) {
	var err error
	a := workflow.AdHoc{
		ID:           ar.ID,
		Submit:       seconds("submit_sec", ar.SubmitSec, &err),
		Tasks:        ar.Tasks,
		TaskDuration: seconds("task_dur_sec", ar.TaskDurSec, &err),
		TaskDemand:   resource.New(ar.DemandVCores, ar.DemandMemMB),
	}
	if err != nil {
		return workflow.AdHoc{}, fmt.Errorf("trace: ad-hoc %s: %w", ar.ID, err)
	}
	if err := a.Validate(); err != nil {
		return workflow.AdHoc{}, fmt.Errorf("trace: %w", err)
	}
	return a, nil
}

// maxSec is the largest second count a time.Duration holds.
const maxSec = math.MaxInt64 / int64(time.Second)

// seconds converts one second count of a record, the only place a record's
// seconds become a time.Duration. A count below zero or above maxSec is
// refused — recorded in *err unless an earlier field was — because
// time.Duration(sec)*time.Second would wrap it to another duration:
// -18446744073 s to +0.71 s, 18446744074 s to 0.29 s.
func seconds(field string, sec int64, err *error) time.Duration {
	if sec < 0 || sec > maxSec {
		if *err == nil {
			*err = fmt.Errorf("%s = %d, want a second count in [0, %d]", field, sec, maxSec)
		}
		return 0
	}
	return time.Duration(sec) * time.Second
}

// Write encodes the trace as indented JSON.
func (t *Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// Read decodes and validates a trace.
func Read(r io.Reader) (*Trace, error) {
	// Buffer the document so a strict-decode failure can still produce a
	// precise "unknown future version" error instead of a field-level one.
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	var t Trace
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		// A future schema version may carry fields this reader does not
		// know. Distinguish "newer schema" from "garbage" by decoding
		// just the version leniently.
		var v struct {
			Version int `json:"version"`
		}
		if jerr := json.Unmarshal(raw, &v); jerr == nil {
			if verr := checkVersion(v.Version); verr != nil {
				return nil, verr
			}
		}
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	// Validate by round-tripping through the workload types.
	if _, _, err := t.ToWorkload(); err != nil {
		return nil, err
	}
	return &t, nil
}
