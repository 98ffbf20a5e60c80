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
//	3 tick         slot faults  nRequeued{qid}  nGrants [expiry] {qid job node grant [expiry]}
//	4 confirm      slot faults  n{qid}
//	5 requeue      faults  n{qid}
//	6 epoch        epoch slot
//	7 plan diff    the diff in internal/plan's binary codec, to the end of the payload
//	8 plan rebase  the plan in internal/plan's JSON form, to the end of the payload
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
//   - Job and node IDs in a tick's grants are zero plus the literal the
//     first time the record names them, and their one-based position in
//     that order of first appearance afterwards. A repeated literal is
//     refused.
//   - A tick's lease expiry is stored once, plus one, when all its grants
//     share it (they always do: it is slot + Config.LeaseExpiry); zero
//     there means each grant carries its own, which is refused when they
//     are in fact all equal.
//
// With those refusals, and binenc's (non-minimal varints, counts the
// input cannot hold, trailing bytes), a byte string decodes at most one
// way: decode∘encode is the identity on every record the encoder accepts
// and encode∘decode on every payload the decoder accepts. List fields
// decode to nil when empty.
//
// One form: before this codec a payload was json.Marshal(walRecord), which
// always opens with '{' — a byte no tag takes. Nothing has written that
// form since the codec landed and no supported state directory predates a
// snapshot rotation under it (rotation drops the old log; there is no
// deployed fleet), so the JSON reader is gone: decode refuses a '{' payload,
// and a '{' diff behind tagPlanDiff, with an error that says so.
package rmserver

import (
	"errors"
	"fmt"
	"math"

	"flowtime/internal/binenc"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
)

const (
	tagWorkflow byte = 1 + iota
	tagAdHoc
	tagTick
	tagConfirm
	tagRequeue
	tagEpoch
	tagPlanDiff
	tagPlanRebase
)

// walCodec encodes and decodes journal records. It holds the state that
// is per record (the ID table, the previous quantum number) and the
// encode buffer, all reused from record to record; the zero value is
// ready. Not safe for concurrent use — the server's is guarded by s.mu.
type walCodec struct {
	buf  []byte
	ids  map[string]int // ID -> position in order of first appearance
	tab  []string       // decode only: position -> ID
	qids rmproto.QIDCoder
}

func (c *walCodec) reset() {
	if c.ids == nil {
		c.ids = make(map[string]int)
	}
	clear(c.ids)
	c.tab = c.tab[:0]
	c.qids = rmproto.QIDCoder{}
}

// encode returns rec's payload. The slice is the codec's buffer: it is
// valid until the next encode.
func (c *walCodec) encode(rec *walRecord) ([]byte, error) {
	c.reset()
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
		c.qids.PutList(&w, r.Requeued)
		w.Uint(uint64(len(r.Grants)))
		shared := true
		for i := range r.Grants {
			shared = shared && r.Grants[i].Expiry == r.Grants[0].Expiry
		}
		if len(r.Grants) > 0 {
			// Shared only if expiry+1 is a positive varint: a negative
			// expiry goes per grant, where w.Int refuses it.
			if e := r.Grants[0].Expiry; shared && e >= 0 && e < math.MaxInt64 {
				w.Int(e + 1)
			} else {
				shared = false
				w.Uint(0)
			}
		}
		for i := range r.Grants {
			g := &r.Grants[i]
			c.qids.Put(&w, g.QID)
			c.putID(&w, g.JobID)
			c.putID(&w, g.NodeID)
			putVector(&w, g.Grant)
			if !shared {
				w.Int(g.Expiry)
			}
		}
	}
	if r := rec.Confirm; r != nil {
		set++
		w.Byte(tagConfirm)
		w.Int(r.Slot)
		putFaults(&w, &r.Faults)
		c.qids.PutList(&w, r.QIDs)
	}
	if r := rec.Requeue; r != nil {
		set++
		w.Byte(tagRequeue)
		putFaults(&w, &r.Faults)
		c.qids.PutList(&w, r.QIDs)
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
		w.Buf = append(w.Buf, r.Plan...)
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

// decode parses one payload. The returned record does not alias payload,
// except for a plan rebase's plan blob.
func (c *walCodec) decode(payload []byte) (walRecord, error) {
	var rec walRecord
	c.reset()
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
		v.Requeued = c.qids.GetList(&r)
		// A grant is a quantum ID, two ID references and a vector.
		if n := r.Count(3 + resource.NumKinds); n > 0 {
			v.Grants = make([]recGrant, n)
			expiry := r.Int() - 1 // -1: each grant carries its own
			allEqual := true
			for i := range v.Grants {
				g := &v.Grants[i]
				g.QID = c.qids.Get(&r)
				g.JobID = c.getID(&r)
				g.NodeID = c.getID(&r)
				g.Grant = getVector(&r)
				g.Expiry = expiry
				if expiry < 0 {
					g.Expiry = r.Int()
					allEqual = allEqual && g.Expiry == v.Grants[0].Expiry
				}
			}
			if expiry < 0 && allEqual && v.Grants[0].Expiry < math.MaxInt64 {
				r.Fail(errors.New("per-grant expiries that are all equal"))
			}
		}
	case tagConfirm:
		v := &recConfirm{Slot: r.Int()}
		rec.Confirm = v
		getFaults(&r, &v.Faults)
		v.QIDs = c.qids.GetList(&r)
	case tagRequeue:
		v := &recRequeue{}
		rec.Requeue = v
		getFaults(&r, &v.Faults)
		v.QIDs = c.qids.GetList(&r)
	case tagEpoch:
		rec.Epoch = &recEpoch{Epoch: r.Int(), Slot: r.Int()}
	case tagPlanDiff:
		d, err := plan.DecodeDiff(r.Rest())
		if err != nil {
			return walRecord{}, err
		}
		rec.PlanDiff = &recPlanDiff{Diff: d}
	case tagPlanRebase:
		rec.PlanRebase = &recPlanRebase{Plan: r.Rest()}
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

// putID writes a job or node ID: a back-reference if the record has
// named it before, the literal otherwise.
func (c *walCodec) putID(w *binenc.Writer, id string) {
	if i, ok := c.ids[id]; ok {
		w.Uint(uint64(i) + 1)
		return
	}
	c.ids[id] = len(c.ids)
	w.Uint(0)
	w.String(id)
}

func (c *walCodec) getID(r *binenc.Reader) string {
	ref := r.Uint()
	if ref > uint64(len(c.tab)) {
		r.Fail(fmt.Errorf("ID back-reference %d beyond the %d IDs the record has named", ref, len(c.tab)))
		return ""
	}
	if ref > 0 {
		return c.tab[ref-1]
	}
	id := r.String()
	if _, dup := c.ids[id]; dup && r.Err() == nil {
		r.Fail(fmt.Errorf("ID %q spelled out twice", id))
	}
	c.ids[id] = len(c.tab)
	c.tab = append(c.tab, id)
	return id
}
