// The journal's record format. This file is the only one in the module
// that knows it: every record is encoded through Codec.Encode, replay,
// a follower's ingest and `ftrm -wal-dump` decode through Codec.Decode,
// and nothing else looks inside a WAL payload.
//
// A payload is one tag byte naming the Record variant, then the
// variant's fields in declaration order, in internal/binenc's primitives:
// every integer an unsigned minimal varint (all of them are non-negative;
// a negative one is refused, never wrapped), strings length-prefixed,
// flags one byte 0 or 1, lists count-prefixed.
//
//	1 workflow     id submitSec deadlineSec  nJobs{name tasks dur actualDur vcores mem}
//	               nDeps{from to}  submitNS deadlineNS slot bestEffort  nWindows{rel dl minSlots}
//	2 adhoc        id submitSec tasks dur vcores mem  slot
//	10 tick        slot  nRequeued{qid}  nGrants{qid job node grant} expiries
//	11 confirm     slot  n{qid}
//	12 requeue     n{qid}
//	13 epoch       epoch
//
// A workflow or ad-hoc record opens with the trace record in
// rmproto.PutWorkflowRecord's or PutAdHocRecord's coding, which is also
// the whole body of the submission on the wire. Three things are stored
// relative to what the record already said:
//
//   - A quantum is its number n (rmproto.QuantumNum, the n of the ID
//     "q-<n>" a node is handed), coded by rmproto.QIDCoder as heartbeat
//     bodies code their IDs: the zigzagged difference of n to the record's
//     previous number, plus one (a tick's grants are consecutive: one byte
//     each). The zero that escapes a literal ID in a heartbeat body is
//     refused: the RM journals only quanta it issued, so a record holds
//     numbers only.
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
// accepts. List fields decode to nil when empty.
//
// One form. Before this one the journal held the scheduler's plan, as a
// plan diff (tag 7) per revision and a plan rebase (8) wherever the diff
// chain broke, though no replayed decision read it; before that a tick
// (tag 9), a confirm (4) and a requeue (5) carried the seven fault
// counters, and an epoch (6) its slot, none of which replay needs; before
// that a tick took tag 3 and back-referenced the IDs it had already
// spelled; before that a payload was json.Marshal(Record), which always
// opens with '{' — a byte no tag takes. Nothing has written any of them
// since and no supported state directory predates a snapshot rotation
// under this form (rotation drops the old log and writes a current
// snapshot; there is no deployed fleet), so none is read: decode refuses
// tags 3, 4, 5, 6, 7, 8 and 9 and a '{' payload by their first byte alone,
// each with an error that names the form.
package rmstate

import (
	"errors"
	"fmt"

	"flowtime/internal/binenc"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
)

const (
	tagWorkflow byte = 1 + iota
	tagAdHoc
	tagTickBackRef   // the tick before front-coded IDs; refused
	tagConfirmFaults // the confirm with fault counters; refused
	tagRequeueFaults // the requeue with fault counters; refused
	tagEpochSlot     // the epoch with a slot; refused
	tagPlanDiff      // the plan diff; refused
	tagPlanRebase    // the plan rebase; refused
	tagTickFaults    // the tick with fault counters; refused
	tagTick
	tagConfirm
	tagRequeue
	tagEpoch
)

// oldForms names the records no longer read, by tag, for decode's refusal.
var oldForms = map[byte]string{
	tagTickBackRef:   "tick record with tag 3, the form with back-referenced IDs that predates front coding",
	tagConfirmFaults: "confirm record with tag 4, the form that carried fault counters",
	tagRequeueFaults: "requeue record with tag 5, the form that carried fault counters",
	tagEpochSlot:     "epoch record with tag 6, the form that carried a slot",
	tagPlanDiff:      "plan diff record with tag 7, the form that journaled the scheduler's plan",
	tagPlanRebase:    "plan rebase record with tag 8, the form that journaled the scheduler's plan",
	tagTickFaults:    "tick record with tag 9, the form that carried fault counters",
	'{':              "WAL record in the JSON form of a pre-binary-codec RM",
}

// Codec encodes journal records into a buffer it reuses from record to
// record; the zero value is ready. Not safe for concurrent use.
type Codec struct {
	buf []byte
}

// Encode returns rec's payload. The slice is the codec's buffer: it is
// valid until the next encode.
func (c *Codec) Encode(rec *Record) ([]byte, error) {
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
		binenc.PutList(&w, r.Windows, func(w *binenc.Writer, win RecWindow) {
			w.Int(win.ReleaseNS)
			w.Int(win.DeadlineNS)
			w.Int(win.MinSlots)
		})
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
		binenc.PutList(&w, r.Requeued, qids.PutNum)
		var prev RecGrant
		binenc.PutList(&w, r.Grants, func(w *binenc.Writer, g RecGrant) {
			qids.PutNum(w, g.QID)
			w.FrontString(prev.JobID, g.JobID)
			w.FrontString(prev.NodeID, g.NodeID)
			putVector(w, g.Grant)
			prev = g
		})
		rmproto.PutExpiries(&w, len(r.Grants), func(i int) int64 { return r.Grants[i].Expiry })
	}
	if r := rec.Confirm; r != nil {
		set++
		w.Byte(tagConfirm)
		w.Int(r.Slot)
		binenc.PutList(&w, r.QIDs, qids.PutNum)
	}
	if r := rec.Requeue; r != nil {
		set++
		w.Byte(tagRequeue)
		binenc.PutList(&w, r.QIDs, qids.PutNum)
	}
	if r := rec.Epoch; r != nil {
		set++
		w.Byte(tagEpoch)
		w.Int(r.Epoch)
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

// Decode parses one payload. The returned record does not alias payload.
func (c *Codec) Decode(payload []byte) (Record, error) {
	var rec Record
	var qids rmproto.QIDCoder
	r := binenc.NewReader(payload)
	switch tag := r.Byte(); tag {
	case tagWorkflow:
		v := &RecWorkflow{WF: rmproto.GetWorkflowRecord(&r)}
		rec.Workflow = v
		v.SubmitNS = r.Int()
		v.DeadlineNS = r.Int()
		v.Slot = r.Int()
		v.BestEffort = r.Bool()
		v.Windows = binenc.GetList(&r, 3, func(r *binenc.Reader) RecWindow {
			return RecWindow{ReleaseNS: r.Int(), DeadlineNS: r.Int(), MinSlots: r.Int()}
		})
	case tagAdHoc:
		rec.AdHoc = &RecAdHoc{Job: rmproto.GetAdHocRecord(&r), Slot: r.Int()}
	case tagTick:
		v := &RecTick{Slot: r.Int()}
		rec.Tick = v
		v.Requeued = binenc.GetList(&r, 1, qids.GetNum)
		// A grant is a quantum number, two front-coded IDs and a vector.
		var prev RecGrant
		v.Grants = binenc.GetList(&r, 5+resource.NumKinds, func(r *binenc.Reader) RecGrant {
			prev = RecGrant{QID: qids.GetNum(r), JobID: r.FrontString(prev.JobID), NodeID: r.FrontString(prev.NodeID), Grant: getVector(r)}
			return prev
		})
		rmproto.GetExpiries(&r, len(v.Grants), func(i int, e int64) { v.Grants[i].Expiry = e })
	case tagConfirm:
		rec.Confirm = &RecConfirm{Slot: r.Int(), QIDs: binenc.GetList(&r, 1, qids.GetNum)}
	case tagRequeue:
		rec.Requeue = &RecRequeue{QIDs: binenc.GetList(&r, 1, qids.GetNum)}
	case tagEpoch:
		rec.Epoch = &RecEpoch{Epoch: r.Int()}
	default:
		if r.Err() == nil {
			if form, old := oldForms[tag]; old {
				return Record{}, errors.New(form + ", which is no longer read")
			}
			return Record{}, fmt.Errorf("unknown WAL record tag %#x", tag)
		}
	}
	if err := r.Finish(); err != nil {
		return Record{}, err
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
