// The journal's record format. This file is the only one in the package
// that knows it: every record is encoded through walCodec.encode
// (Server.encodeLocked), replay (recovery and the follower's ingest)
// decodes through walCodec.decode, and nothing else looks inside a WAL
// payload.
//
// A payload is one tag byte naming the walRecord variant, then the
// variant's fields in declaration order, in internal/binenc's primitives:
// every integer an unsigned minimal varint (all of them are non-negative;
// a negative one is refused, never wrapped), strings length-prefixed,
// flags one byte 0 or 1, lists count-prefixed.
//
//	1 workflow     id submitSec deadlineSec  nJobs{name tasks dur actualDur vcores mem}
//	               nDeps{from to}  submitNS deadlineNS slot bestEffort  nWindows{rel dl minSlots}
//	2 adhoc        id submitSec tasks dur vcores mem  slot
//	4 confirm      slot faults  n{qid}
//	5 requeue      faults  n{qid}
//	6 epoch        epoch slot
//	7 plan diff    the diff in internal/plan's binary codec, to the end of the payload
//	8 plan rebase  the plan in internal/plan's JSON form, to the end of the payload
//	9 tick         slot faults  nRequeued{qid}  nGrants{qid job node grant} expiries
//
// A workflow or ad-hoc record opens with the trace record in
// rmproto.PutWorkflowRecord's or PutAdHocRecord's coding, which is also
// the whole body of the submission on the wire. faults is the seven
// FaultCounters in declaration order. Three things are stored relative to
// what the record already said:
//
//   - A quantum ID is rmproto.QIDCoder's, the coding heartbeat bodies use
//     too: for the server's own form, "q-<n>", the zigzagged difference of
//     n to the record's previous such ID, plus one (a tick's grants are
//     consecutive: one byte each). Zero escapes to a literal string for
//     any other ID; a literal that has the "q-<n>" form is refused, so an
//     ID has one spelling.
//   - A grant's job ID and node ID are front-coded (binenc.FrontString)
//     against the previous grant's: the next ad-hoc job of a burst, or the
//     next node of a row, costs its new suffix and two bytes.
//   - A tick's lease expiries are rmproto.PutExpiries': stored once when
//     all its grants share it (they always do: it is slot +
//     Config.LeaseExpiry), as heartbeat replies store theirs.
//
// With those refusals, and binenc's (non-minimal varints and front-coded
// prefixes, counts the input cannot hold, trailing bytes), a byte string
// decodes at most one way: decode∘encode is the identity on every record
// the encoder accepts and encode∘decode on every payload the decoder
// accepts — a plan rebase's JSON blob included, which must be the one
// plan.EncodePlan writes. List fields decode to nil when empty.
//
// One form. Before this one a tick took tag 3 and back-referenced the IDs
// it had already spelled, and a plan diff or plan carried θ levels; before
// that a payload was json.Marshal(walRecord), which always opens with '{' —
// a byte no tag takes. Nothing has written either since and no supported
// state directory predates a snapshot rotation under this form (rotation
// drops the old log and writes a version-3 snapshot; there is no deployed
// fleet), so neither is read: decode refuses a tag 3 tick, a tag 0x01 diff,
// a rebase plan with "theta", a '{' payload and a '{' diff behind
// tagPlanDiff, each with an error that names it.
package rmserver

import (
	"bytes"
	"errors"
	"fmt"

	"flowtime/internal/binenc"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
)

const (
	tagWorkflow byte = 1 + iota
	tagAdHoc
	tagTickBackRef // the tick before front-coded IDs; refused
	tagConfirm
	tagRequeue
	tagEpoch
	tagPlanDiff
	tagPlanRebase
	tagTick
)

// walCodec encodes journal records into a buffer it reuses from record to
// record; the zero value is ready. Not safe for concurrent use — the
// server's is guarded by s.mu.
type walCodec struct {
	buf []byte
}

// encode returns rec's payload. The slice is the codec's buffer: it is
// valid until the next encode.
func (c *walCodec) encode(rec *walRecord) ([]byte, error) {
	var qids rmproto.QIDCoder
	w := binenc.Writer{Buf: c.buf[:0]}
	set := 0
	if r := rec.Workflow; r != nil {
		set++
		w.Byte(tagWorkflow)
		rmproto.PutWorkflowRecord(&w, &r.WF)
		w.Int(r.SubmitNS)
		w.Int(r.DeadlineNS)
		w.Int(r.Slot)
		w.Bool(r.BestEffort)
		w.Uint(uint64(len(r.Windows)))
		for _, win := range r.Windows {
			w.Int(win.ReleaseNS)
			w.Int(win.DeadlineNS)
			w.Int(win.MinSlots)
		}
	}
	if r := rec.AdHoc; r != nil {
		set++
		w.Byte(tagAdHoc)
		rmproto.PutAdHocRecord(&w, &r.Job)
		w.Int(r.Slot)
	}
	if r := rec.Tick; r != nil {
		set++
		w.Byte(tagTick)
		w.Int(r.Slot)
		putFaults(&w, &r.Faults)
		qids.PutList(&w, r.Requeued)
		w.Uint(uint64(len(r.Grants)))
		var prev recGrant
		for i := range r.Grants {
			g := &r.Grants[i]
			qids.Put(&w, g.QID)
			w.FrontString(prev.JobID, g.JobID)
			w.FrontString(prev.NodeID, g.NodeID)
			putVector(&w, g.Grant)
			prev = *g
		}
		rmproto.PutExpiries(&w, len(r.Grants), func(i int) int64 { return r.Grants[i].Expiry })
	}
	if r := rec.Confirm; r != nil {
		set++
		w.Byte(tagConfirm)
		w.Int(r.Slot)
		putFaults(&w, &r.Faults)
		qids.PutList(&w, r.QIDs)
	}
	if r := rec.Requeue; r != nil {
		set++
		w.Byte(tagRequeue)
		putFaults(&w, &r.Faults)
		qids.PutList(&w, r.QIDs)
	}
	if r := rec.Epoch; r != nil {
		set++
		w.Byte(tagEpoch)
		w.Int(r.Epoch)
		w.Int(r.Slot)
	}
	if r := rec.PlanDiff; r != nil {
		set++
		w.Byte(tagPlanDiff)
		var err error
		if w.Buf, err = plan.AppendDiff(w.Buf, r.Diff); err != nil {
			w.Fail(err)
		}
	}
	if r := rec.PlanRebase; r != nil {
		set++
		w.Byte(tagPlanRebase)
		if blob, err := plan.EncodePlan(r.Plan); err != nil {
			w.Fail(err)
		} else {
			w.Buf = append(w.Buf, blob...)
		}
	}
	c.buf = w.Buf
	if set != 1 {
		return nil, fmt.Errorf("WAL record with %d variants set, want exactly one", set)
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	return w.Buf, nil
}

// decode parses one payload. The returned record does not alias payload.
func (c *walCodec) decode(payload []byte) (walRecord, error) {
	var rec walRecord
	var qids rmproto.QIDCoder
	r := binenc.NewReader(payload)
	switch tag := r.Byte(); tag {
	case tagWorkflow:
		v := &recWorkflow{WF: rmproto.GetWorkflowRecord(&r)}
		rec.Workflow = v
		v.SubmitNS = r.Int()
		v.DeadlineNS = r.Int()
		v.Slot = r.Int()
		v.BestEffort = r.Bool()
		if n := r.Count(3); n > 0 {
			v.Windows = make([]recWindow, n)
			for i := range v.Windows {
				v.Windows[i] = recWindow{ReleaseNS: r.Int(), DeadlineNS: r.Int(), MinSlots: r.Int()}
			}
		}
	case tagAdHoc:
		rec.AdHoc = &recAdHoc{Job: rmproto.GetAdHocRecord(&r), Slot: r.Int()}
	case tagTick:
		v := &recTick{Slot: r.Int()}
		rec.Tick = v
		getFaults(&r, &v.Faults)
		v.Requeued = qids.GetList(&r)
		// A grant is a quantum ID, two front-coded IDs and a vector.
		if n := r.Count(5 + resource.NumKinds); n > 0 {
			v.Grants = make([]recGrant, n)
			var prev recGrant
			for i := range v.Grants {
				g := &v.Grants[i]
				g.QID = qids.Get(&r)
				g.JobID = r.FrontString(prev.JobID)
				g.NodeID = r.FrontString(prev.NodeID)
				g.Grant = getVector(&r)
				prev = *g
			}
			rmproto.GetExpiries(&r, n, func(i int, e int64) { v.Grants[i].Expiry = e })
		}
	case tagConfirm:
		v := &recConfirm{Slot: r.Int()}
		rec.Confirm = v
		getFaults(&r, &v.Faults)
		v.QIDs = qids.GetList(&r)
	case tagRequeue:
		v := &recRequeue{}
		rec.Requeue = v
		getFaults(&r, &v.Faults)
		v.QIDs = qids.GetList(&r)
	case tagEpoch:
		rec.Epoch = &recEpoch{Epoch: r.Int(), Slot: r.Int()}
	case tagPlanDiff:
		d, err := plan.DecodeDiff(r.Rest())
		if err != nil {
			return walRecord{}, err
		}
		rec.PlanDiff = &recPlanDiff{Diff: d}
	case tagPlanRebase:
		blob := r.Rest()
		p, err := plan.DecodePlan(blob)
		if err != nil {
			return walRecord{}, fmt.Errorf("plan rebase: %w", err)
		}
		if canon, err := plan.EncodePlan(p); err != nil || !bytes.Equal(canon, blob) {
			return walRecord{}, errors.New("plan rebase: the plan is not in plan.EncodePlan's form")
		}
		rec.PlanRebase = &recPlanRebase{Plan: p}
	case tagTickBackRef:
		return walRecord{}, errors.New("tick record with tag 3, the form with back-referenced IDs that predates front coding, which is no longer read")
	case '{':
		return walRecord{}, errors.New("WAL record in the JSON form of a pre-binary-codec RM, which is no longer read")
	default:
		if r.Err() == nil {
			return walRecord{}, fmt.Errorf("unknown WAL record tag %#x", tag)
		}
	}
	if err := r.Finish(); err != nil {
		return walRecord{}, err
	}
	return rec, nil
}

func putVector(w *binenc.Writer, v resource.Vector) {
	for _, a := range v {
		w.Int(a)
	}
}

func getVector(r *binenc.Reader) (v resource.Vector) {
	for i := range v {
		v[i] = r.Int()
	}
	return v
}

func putFaults(w *binenc.Writer, f *rmproto.FaultCounters) {
	w.Int(f.RequeuedQuanta)
	w.Int(f.ExpiredNodes)
	w.Int(f.SchedulerPanics)
	w.Int(f.StaleConfirms)
	w.Int(f.BestEffortAdmissions)
	w.Int(f.PlanDiffsApplied)
	w.Int(f.PlanRebases)
}

func getFaults(r *binenc.Reader, f *rmproto.FaultCounters) {
	f.RequeuedQuanta = r.Int()
	f.ExpiredNodes = r.Int()
	f.SchedulerPanics = r.Int()
	f.StaleConfirms = r.Int()
	f.BestEffortAdmissions = r.Int()
	f.PlanDiffsApplied = r.Int()
	f.PlanRebases = r.Int()
}
