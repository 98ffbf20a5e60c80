// The binary form of POST PathHeartbeat's bodies, and the quantum ID and
// lease expiry codings it shares with the RM's journal (internal/rmserver's
// walcodec.go). Both bodies are internal/binenc fields, so the decoders are
// strict: a byte string decodes at most one way, and a decoded body
// re-encodes to itself.
//
//	request  nodeID  n{qid}
//	reply    n {qid jobID vcores memoryMB} expiries
//
// The reply is the journal's tick grants {qid job node grant} expiries
// without the node: the job ID front-coded against the launch before it
// (binenc.FrontString), the expiries (Quantum.DeadlineSlot) as PutExpiries
// writes them.

package rmproto

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"flowtime/internal/binenc"
)

// HeartbeatMediaType is the Content-Type of both bodies of POST
// PathHeartbeat. A request under any other type is refused with 415 — a
// node built for the reply form before front-coded job IDs sends the type
// without the version suffix, and is told the one it needs instead of
// misreading a reply.
const HeartbeatMediaType = "application/x-flowtime-heartbeat-v2"

// QuantumID is the RM's own form of its n-th quantum ID, "q-<n>".
func QuantumID(n int64) string {
	var b [22]byte // "q-" and the 20 characters of any int64: one allocation, the string's
	return string(strconv.AppendInt(append(b[:0], "q-"...), n, 10))
}

// ParseQuantumID splits a quantum ID of the RM's own form, "q-<n>" with n a
// non-negative int64 in plain decimal. Anything else — including a
// spelling of such a number with a sign or leading zeros — is not of the
// form: QIDCoder writes it as a literal, and WAL replay, which orders
// grants by that number, skips a grant that carries it.
func ParseQuantumID(qid string) (int64, bool) {
	if len(qid) < 3 || qid[0] != 'q' || qid[1] != '-' || (qid[2] == '0' && len(qid) > 3) {
		return 0, false
	}
	for i := 2; i < len(qid); i++ {
		if qid[i] < '0' || qid[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(qid[2:], 10, 64)
	return n, err == nil
}

// QIDCoder writes and reads the quantum IDs of one journal record or one
// heartbeat body. An ID of the RM's own form is the zigzagged difference
// of n to the previous such ID, plus one, so consecutive IDs are one byte
// each; zero escapes to a literal string for any other ID, and a literal
// of the own form is refused, so an ID has one spelling. The zero value
// starts from n = 0.
type QIDCoder struct{ prev int64 }

// Put writes one quantum ID.
func (c *QIDCoder) Put(w *binenc.Writer, qid string) {
	n, ok := ParseQuantumID(qid)
	if !ok {
		w.Uint(0)
		w.String(qid)
		return
	}
	d := n - c.prev // both are in [0, MaxInt64]: no overflow
	w.Uint(uint64(d<<1^d>>63) + 1)
	c.prev = n
}

// Get reads one quantum ID.
func (c *QIDCoder) Get(r *binenc.Reader) string {
	v := r.Uint()
	if v == 0 {
		qid := r.String()
		if _, ok := ParseQuantumID(qid); ok {
			r.Fail(fmt.Errorf("quantum ID %q spelled out, want a delta", qid))
		}
		return qid
	}
	v--
	n := c.prev + (int64(v>>1) ^ -int64(v&1))
	if n < 0 { // below zero, or wrapped past MaxInt64
		r.Fail(errors.New("quantum ID delta leaves the int64 range"))
		return ""
	}
	c.prev = n
	return QuantumID(n)
}

// PutList writes a count-prefixed list of quantum IDs.
func (c *QIDCoder) PutList(w *binenc.Writer, qids []string) {
	w.Uint(uint64(len(qids)))
	for _, qid := range qids {
		c.Put(w, qid)
	}
}

// GetList reads a count-prefixed list of quantum IDs; nil when empty.
func (c *QIDCoder) GetList(r *binenc.Reader) []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	qids := make([]string, n)
	for i := range qids {
		qids[i] = c.Get(r)
	}
	return qids
}

// PutExpiries writes the lease expiries of a list of n items, item i's
// being at(i), behind the items: the expiry once, plus one, when every item
// has it — they always do when one tick issued them all — and zero
// otherwise, followed by each item's own. A negative expiry goes per item,
// where w.Int refuses it, and so does MaxInt64, which has no plus one.
func PutExpiries(w *binenc.Writer, n int, at func(i int) int64) {
	if n == 0 {
		return
	}
	e := at(0)
	shared := e >= 0 && e < math.MaxInt64
	for i := 1; i < n && shared; i++ {
		shared = at(i) == e
	}
	if shared {
		w.Int(e + 1)
		return
	}
	w.Uint(0)
	for i := 0; i < n; i++ {
		w.Int(at(i))
	}
}

// GetExpiries reads what PutExpiries wrote for n items, handing item i's
// expiry to set. Per-item expiries that are all equal are refused: they
// have the shared spelling.
func GetExpiries(r *binenc.Reader, n int, set func(i int, expiry int64)) {
	if n == 0 {
		return
	}
	if e := r.Int(); e > 0 {
		for i := 0; i < n; i++ {
			set(i, e-1)
		}
		return
	}
	first, allEqual := int64(0), true
	for i := 0; i < n; i++ {
		e := r.Int()
		if i == 0 {
			first = e
		}
		allEqual = allEqual && e == first
		set(i, e)
	}
	if allEqual && first < math.MaxInt64 && r.Err() == nil {
		r.Fail(errors.New("per-item expiries that are all equal"))
	}
}

// AppendHeartbeatRequest appends req's binary form to b.
func AppendHeartbeatRequest(b []byte, req HeartbeatRequest) []byte {
	w := binenc.Writer{Buf: b}
	w.String(req.NodeID)
	var qc QIDCoder
	qc.PutList(&w, req.Completed)
	return w.Buf
}

// DecodeHeartbeatRequest parses a request body. Completed is nil when the
// body lists no quanta.
func DecodeHeartbeatRequest(p []byte) (HeartbeatRequest, error) {
	return decodeBody(p, "heartbeat request", func(r *binenc.Reader) HeartbeatRequest {
		var qc QIDCoder
		return HeartbeatRequest{NodeID: r.String(), Completed: qc.GetList(r)}
	})
}

// AppendHeartbeatResponse appends resp's binary form to b. A negative
// grant or deadline slot is refused: the form stores no sign.
func AppendHeartbeatResponse(b []byte, resp HeartbeatResponse) ([]byte, error) {
	w := binenc.Writer{Buf: b}
	launch := resp.Launch
	w.Uint(uint64(len(launch)))
	var qc QIDCoder
	prev := ""
	for i := range launch {
		q := &launch[i]
		qc.Put(&w, q.ID)
		w.FrontString(prev, q.JobID)
		prev = q.JobID
		w.Int(q.Grant.VCores)
		w.Int(q.Grant.MemoryMB)
	}
	PutExpiries(&w, len(launch), func(i int) int64 { return launch[i].DeadlineSlot })
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("rmproto: heartbeat reply: %w", err)
	}
	return w.Buf, nil
}

// DecodeHeartbeatResponse parses a reply body. Launch is nil when the
// reply carries no launches.
func DecodeHeartbeatResponse(p []byte) (HeartbeatResponse, error) {
	return decodeBody(p, "heartbeat reply", func(r *binenc.Reader) (resp HeartbeatResponse) {
		// A launch is a quantum ID, a front-coded job ID and two integers.
		n := r.Count(5)
		if n == 0 {
			return resp
		}
		resp.Launch = make([]Quantum, n)
		var qc QIDCoder
		prev := ""
		for i := range resp.Launch {
			q := &resp.Launch[i]
			q.ID = qc.Get(r)
			q.JobID = r.FrontString(prev)
			prev = q.JobID
			q.Grant = Resources{VCores: r.Int(), MemoryMB: r.Int()}
		}
		GetExpiries(r, n, func(i int, e int64) { resp.Launch[i].DeadlineSlot = e })
		return resp
	})
}
