// The binary form of POST PathHeartbeat's bodies, and the quantum ID coding
// it shares with the RM's journal (internal/rmserver's walcodec.go). Both
// bodies are internal/binenc fields, so the decoders are strict: a byte
// string decodes at most one way, and a decoded body re-encodes to itself.
//
//	request  nodeID  n{qid}
//	reply    n [expiry]  {qid jobID vcores memoryMB [expiry]}
//
// The reply is the journal's tick grant {qid job node grant [expiry]}
// without the node, and with the job ID spelled out each time: a reply
// rarely names a job twice, so the journal's back-references would cost a
// byte per launch and save nothing. The expiry (Quantum.DeadlineSlot) is
// stored once, plus one, when every launch shares it — it always does when
// one tick issued them all — and zero there means each launch carries its
// own, which is refused when they are in fact all equal.

package rmproto

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"flowtime/internal/binenc"
)

// HeartbeatMediaType is the Content-Type of both bodies of POST
// PathHeartbeat. A request under any other type is refused with 415.
const HeartbeatMediaType = "application/x-flowtime-heartbeat"

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
	shared := true
	for i := range launch {
		shared = shared && launch[i].DeadlineSlot == launch[0].DeadlineSlot
	}
	if len(launch) > 0 {
		// Shared only if expiry+1 is a positive varint: a negative one goes
		// per launch, where w.Int refuses it.
		if e := launch[0].DeadlineSlot; shared && e >= 0 && e < math.MaxInt64 {
			w.Int(e + 1)
		} else {
			shared = false
			w.Uint(0)
		}
	}
	var qc QIDCoder
	for i := range launch {
		q := &launch[i]
		qc.Put(&w, q.ID)
		w.String(q.JobID)
		w.Int(q.Grant.VCores)
		w.Int(q.Grant.MemoryMB)
		if !shared {
			w.Int(q.DeadlineSlot)
		}
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("rmproto: heartbeat reply: %w", err)
	}
	return w.Buf, nil
}

// DecodeHeartbeatResponse parses a reply body. Launch is nil when the
// reply carries no launches.
func DecodeHeartbeatResponse(p []byte) (HeartbeatResponse, error) {
	return decodeBody(p, "heartbeat reply", func(r *binenc.Reader) (resp HeartbeatResponse) {
		// A launch is a quantum ID, a job ID and two integers.
		n := r.Count(4)
		if n == 0 {
			return resp
		}
		resp.Launch = make([]Quantum, n)
		expiry := r.Int() - 1 // -1: each launch carries its own
		allEqual := true
		var qc QIDCoder
		for i := range resp.Launch {
			q := &resp.Launch[i]
			q.ID = qc.Get(r)
			q.JobID = r.String()
			q.Grant = Resources{VCores: r.Int(), MemoryMB: r.Int()}
			q.DeadlineSlot = expiry
			if expiry < 0 {
				q.DeadlineSlot = r.Int()
				allEqual = allEqual && q.DeadlineSlot == resp.Launch[0].DeadlineSlot
			}
		}
		if expiry < 0 && allEqual && resp.Launch[0].DeadlineSlot < math.MaxInt64 {
			r.Fail(errors.New("per-launch deadline slots that are all equal"))
		}
		return resp
	})
}
