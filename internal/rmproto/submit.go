// The binary form of the bodies of POST PathWorkflows and PathAdHoc, and
// the trace-record coding they share with the RM's journal
// (internal/rmserver's walcodec.go): a request is the record exactly as a
// journal record starts, without the journal's own trailing fields.
//
//	ad-hoc request    id submitSec tasks dur vcores mem
//	workflow request  id submitSec deadlineSec nJobs{name tasks dur actualDur vcores mem} nDeps{from to}
//	reply             accepted bestEffort
//
// The reply names no job: the ID is a function of the request — the
// workflow's ID, or AdHocJobID of the job's — and the client fills in
// SubmitResponse.ID itself. Every field is an internal/binenc primitive, so
// the decoders are strict: a byte string decodes at most one way, and a
// decoded body re-encodes to itself.

package rmproto

import (
	"fmt"
	"math"

	"flowtime/internal/binenc"
	"flowtime/internal/trace"
)

// SubmitMediaType is the Content-Type of both bodies of POST PathWorkflows
// and PathAdHoc. A request under any other type is refused with 415.
const SubmitMediaType = "application/x-flowtime-submit"

// AdHocJobID is the RM's ID for the ad-hoc job submitted as id: the one its
// status entry, leases and SubmitResponse carry.
func AdHocJobID(id string) string { return "adhoc/" + id }

// PutWorkflowRecord writes a workflow's trace record. A negative field is
// refused through w's sticky error: the form stores no sign.
func PutWorkflowRecord(w *binenc.Writer, rec *trace.WorkflowRecord) {
	w.String(rec.ID)
	w.Int(rec.SubmitSec)
	w.Int(rec.DeadlineSec)
	binenc.PutList(w, rec.Jobs, func(w *binenc.Writer, j trace.JobRecord) {
		w.String(j.Name)
		w.Int(int64(j.Tasks))
		w.Int(j.TaskDurSec)
		w.Int(j.ActualTaskDurSec)
		w.Int(j.DemandVCores)
		w.Int(j.DemandMemMB)
	})
	binenc.PutList(w, rec.Deps, func(w *binenc.Writer, d [2]int) {
		w.Int(int64(d[0]))
		w.Int(int64(d[1]))
	})
}

// GetWorkflowRecord reads a workflow's trace record. Jobs and Deps are nil
// when empty.
func GetWorkflowRecord(r *binenc.Reader) trace.WorkflowRecord {
	rec := trace.WorkflowRecord{ID: r.String(), SubmitSec: r.Int(), DeadlineSec: r.Int()}
	// A job is a name and five integers.
	rec.Jobs = binenc.GetList(r, 6, func(r *binenc.Reader) trace.JobRecord {
		return trace.JobRecord{Name: r.String(), Tasks: getInt(r), TaskDurSec: r.Int(),
			ActualTaskDurSec: r.Int(), DemandVCores: r.Int(), DemandMemMB: r.Int()}
	})
	rec.Deps = binenc.GetList(r, 2, func(r *binenc.Reader) [2]int { return [2]int{getInt(r), getInt(r)} })
	return rec
}

// PutAdHocRecord writes an ad-hoc job's trace record; a negative field is
// refused as in PutWorkflowRecord.
func PutAdHocRecord(w *binenc.Writer, rec *trace.AdHocRecord) {
	w.String(rec.ID)
	w.Int(rec.SubmitSec)
	w.Int(int64(rec.Tasks))
	w.Int(rec.TaskDurSec)
	w.Int(rec.DemandVCores)
	w.Int(rec.DemandMemMB)
}

// GetAdHocRecord reads an ad-hoc job's trace record.
func GetAdHocRecord(r *binenc.Reader) trace.AdHocRecord {
	return trace.AdHocRecord{ID: r.String(), SubmitSec: r.Int(), Tasks: getInt(r),
		TaskDurSec: r.Int(), DemandVCores: r.Int(), DemandMemMB: r.Int()}
}

// getInt reads a varint into a Go int.
func getInt(r *binenc.Reader) int {
	v := r.Int()
	if v > math.MaxInt {
		r.Fail(fmt.Errorf("integer %d overflows int", v))
		return 0
	}
	return int(v)
}

// AppendSubmitWorkflowRequest appends req's binary form to b.
func AppendSubmitWorkflowRequest(b []byte, req SubmitWorkflowRequest) ([]byte, error) {
	w := binenc.Writer{Buf: b}
	PutWorkflowRecord(&w, &req.Workflow)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("rmproto: workflow request: %w", err)
	}
	return w.Buf, nil
}

// DecodeSubmitWorkflowRequest parses a workflow request body.
func DecodeSubmitWorkflowRequest(p []byte) (SubmitWorkflowRequest, error) {
	return decodeBody(p, "workflow request", func(r *binenc.Reader) SubmitWorkflowRequest {
		return SubmitWorkflowRequest{Workflow: GetWorkflowRecord(r)}
	})
}

// AppendSubmitAdHocRequest appends req's binary form to b.
func AppendSubmitAdHocRequest(b []byte, req SubmitAdHocRequest) ([]byte, error) {
	w := binenc.Writer{Buf: b}
	PutAdHocRecord(&w, &req.Job)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("rmproto: ad-hoc request: %w", err)
	}
	return w.Buf, nil
}

// DecodeSubmitAdHocRequest parses an ad-hoc request body.
func DecodeSubmitAdHocRequest(p []byte) (SubmitAdHocRequest, error) {
	return decodeBody(p, "ad-hoc request", func(r *binenc.Reader) SubmitAdHocRequest {
		return SubmitAdHocRequest{Job: GetAdHocRecord(r)}
	})
}

// AppendSubmitResponse appends resp's binary form — its two flags; not
// its ID — to b. It cannot fail; the error is there so that it has
// AppendHeartbeatResponse's shape.
func AppendSubmitResponse(b []byte, resp SubmitResponse) ([]byte, error) {
	w := binenc.Writer{Buf: b}
	w.Bool(resp.Accepted)
	w.Bool(resp.BestEffort)
	return w.Buf, nil
}

// DecodeSubmitResponse parses a reply body; ID is left empty.
func DecodeSubmitResponse(p []byte) (SubmitResponse, error) {
	return decodeBody(p, "submission reply", func(r *binenc.Reader) SubmitResponse {
		return SubmitResponse{Accepted: r.Bool(), BestEffort: r.Bool()}
	})
}

// decodeBody reads one whole body with get, refusing trailing bytes.
func decodeBody[T any](p []byte, what string, get func(*binenc.Reader) T) (T, error) {
	r := binenc.NewReader(p)
	v := get(&r)
	if err := r.Finish(); err != nil {
		var zero T
		return zero, fmt.Errorf("rmproto: %s: %w", what, err)
	}
	return v, nil
}
