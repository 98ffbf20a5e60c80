package rmproto

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func heartbeatRequests() []HeartbeatRequest {
	return []HeartbeatRequest{
		{},
		{NodeID: "n1"},
		{NodeID: "node-07", Completed: []string{"q-41", "q-42", "q-43", "q-44"}},
		{NodeID: "n2", Completed: []string{"q-9", "q-2", "q-2", "q-0", "", "x", "q-007", "q--1", "q-" + strings.Repeat("9", 20)}},
		{NodeID: "n3", Completed: []string{"q-9223372036854775807", "q-0", "q-9223372036854775807"}},
	}
}

func heartbeatResponses() []HeartbeatResponse {
	launch := func(qid, job string, vcores, mem, expiry int64) Quantum {
		return Quantum{ID: qid, JobID: job, Grant: Resources{VCores: vcores, MemoryMB: mem}, DeadlineSlot: expiry}
	}
	return []HeartbeatResponse{
		{},
		{Launch: []Quantum{launch("q-1", "adhoc/a0", 1, 512, 0)}},
		{Launch: []Quantum{
			launch("q-627", "wf0001/TeraSort-0#0", 8, 32768, 51),
			launch("q-628", "wf0001/TeraSort-0#0", 8, 32768, 51),
			launch("q-629", "adhoc/b17", 0, 0, 51),
			launch("q-630", "", 1, 1, 51),
		}},
		{Launch: []Quantum{
			launch("q-470", "adhoc/ah00470", 1, 512, 9), launch("q-471", "adhoc/ah00471", 1, 512, 9),
			launch("q-472", "adhoc/ah0047", 1, 512, 9), launch("q-473", "adhoc/ah00470", 1, 512, 9),
		}},
		{Launch: []Quantum{launch("q-3", "j", 1, 1, 7), launch("lease-x", "j", 2, 2, 9)}},
		{Launch: []Quantum{launch("q-5", "j", 1, 1, math.MaxInt64)}},
		{Launch: []Quantum{launch("q-5", "j", 1, 1, math.MaxInt64), launch("q-4", "k", 1, 1, math.MaxInt64)}},
	}
}

// TestHeartbeatCodecRoundTrip: decode∘encode is the identity on every
// body, and the bytes are the compact form — consecutive quantum IDs one
// byte each, a job ID front-coded against the launch before, one shared
// deadline slot.
func TestHeartbeatCodecRoundTrip(t *testing.T) {
	for _, req := range heartbeatRequests() {
		b := AppendHeartbeatRequest(nil, req)
		got, err := DecodeHeartbeatRequest(b)
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Errorf("request %+v: decoded to %+v, %v", req, got, err)
		}
	}
	for _, resp := range heartbeatResponses() {
		b, err := AppendHeartbeatResponse(nil, resp)
		if err != nil {
			t.Fatalf("reply %+v: %v", resp, err)
		}
		got, err := DecodeHeartbeatResponse(b)
		if err != nil || !reflect.DeepEqual(got, resp) {
			t.Errorf("reply %+v: decoded to %+v, %v", resp, got, err)
		}
	}
	b := AppendHeartbeatRequest(nil, heartbeatRequests()[2])
	want := []byte{7, 'n', 'o', 'd', 'e', '-', '0', '7', 4, 83, 3, 3, 3}
	if !bytes.Equal(b, want) {
		t.Errorf("request encodes to %v, want %v", b, want)
	}
	b, _ = AppendHeartbeatResponse(nil, HeartbeatResponse{Launch: []Quantum{
		{ID: "q-1", JobID: "j", Grant: Resources{VCores: 2, MemoryMB: 3}, DeadlineSlot: 7},
		{ID: "q-2", JobID: "j", Grant: Resources{VCores: 4, MemoryMB: 5}, DeadlineSlot: 7},
	}})
	want = []byte{2, 3, 0, 1, 'j', 2, 3, 3, 1, 0, 4, 5, 8}
	if !bytes.Equal(b, want) {
		t.Errorf("reply encodes to %v, want %v", b, want)
	}
}

// TestHeartbeatCodecRefusals: a negative number does not encode, and every
// body that is not exactly one encoder output fails to decode, with an
// error that names what is wrong.
func TestHeartbeatCodecRefusals(t *testing.T) {
	for name, resp := range map[string]HeartbeatResponse{
		"negative grant":         {Launch: []Quantum{{ID: "q-1", Grant: Resources{VCores: -1}}}},
		"negative deadline slot": {Launch: []Quantum{{ID: "q-1", DeadlineSlot: -1}}},
	} {
		if b, err := AppendHeartbeatResponse(nil, resp); err == nil {
			t.Errorf("%s: encoded to %v", name, b)
		}
	}

	// Each accepted body is one edit away from the refused ones below it.
	for _, c := range []struct {
		name  string
		body  []byte
		reply bool
	}{
		{"request confirming q-1", []byte{2, 'n', '1', 1, 3}, false},
		{"request confirming a literal", []byte{2, 'n', '1', 1, 0, 1, 'x'}, false},
		{"empty request", []byte{0, 0}, false},
		{"reply of two sharing an expiry", []byte{2, 3, 0, 1, 'j', 2, 3, 3, 1, 0, 4, 5, 8}, true},
		{"reply of two with their own", []byte{2, 3, 0, 1, 'j', 2, 3, 3, 1, 0, 4, 5, 0, 7, 8}, true},
		{"reply of two jobs", []byte{2, 3, 0, 2, 'j', 'a', 2, 3, 3, 1, 1, 'b', 4, 5, 8}, true},
		{"reply with expiry disabled", []byte{1, 3, 0, 1, 'j', 2, 3, 1}, true},
		{"empty reply", []byte{0}, true},
	} {
		var err error
		if c.reply {
			_, err = DecodeHeartbeatResponse(c.body)
		} else {
			_, err = DecodeHeartbeatRequest(c.body)
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	for _, c := range []struct {
		name, want string
		body       []byte
		reply      bool
	}{
		{"non-minimal varint", "non-minimal", []byte{2, 'n', '1', 0x81, 0x00, 3}, false},
		{"count beyond the input", "exceeds", []byte{2, 'n', '1', 9, 3}, false},
		{"node ID beyond the input", "exceeds", []byte{9, 'n', '1'}, false},
		{"trailing bytes", "trailing", []byte{2, 'n', '1', 1, 3, 0}, false},
		{"spelled-out q-<n>", "spelled out", []byte{2, 'n', '1', 1, 0, 3, 'q', '-', '1'}, false},
		{"delta below zero", "int64 range", []byte{2, 'n', '1', 1, 2}, false},
		{"torn request", "ends inside", []byte{2, 'n', '1'}, false},
		{"reply count beyond the input", "exceeds", []byte{3, 3, 0, 1, 'j', 2, 3, 8}, true},
		{"reply with equal expiries per launch", "all equal", []byte{2, 3, 0, 1, 'j', 2, 3, 3, 1, 0, 4, 5, 0, 7, 7}, true},
		{"reply with one expiry per launch", "all equal", []byte{1, 3, 0, 1, 'j', 2, 3, 0, 7}, true},
		{"reply spelling out q-<n>", "spelled out", []byte{1, 0, 3, 'q', '-', '1', 0, 1, 'j', 2, 3, 1}, true},
		{"reply with trailing bytes", "trailing", []byte{0, 0}, true},
		{"reply with a non-minimal grant", "non-minimal", []byte{1, 3, 0, 1, 'j', 0x82, 0x00, 3, 1}, true},
		{"reply with a job prefix past the previous ID", "shared prefix", []byte{2, 3, 0, 1, 'j', 2, 3, 3, 2, 0, 4, 5, 8}, true},
		{"reply with a non-maximal job prefix", "not the longest", []byte{2, 3, 0, 1, 'j', 2, 3, 3, 0, 1, 'j', 4, 5, 8}, true},
		{"reply without its expiry", "ends inside", []byte{1, 3, 0, 1, 'j', 2, 3}, true},
		{"empty reply body", "ends inside", []byte{}, true},
	} {
		var err error
		if c.reply {
			_, err = DecodeHeartbeatResponse(c.body)
		} else {
			_, err = DecodeHeartbeatRequest(c.body)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestQuantumIDForm: the RM's own form has one spelling per number.
func TestQuantumIDForm(t *testing.T) {
	for qid, want := range map[string]int64{"q-0": 0, "q-7": 7, "q-9223372036854775807": math.MaxInt64} {
		if n, ok := ParseQuantumID(qid); !ok || n != want || QuantumID(n) != qid {
			t.Errorf("%q: parsed to %d, %v", qid, n, ok)
		}
	}
	for _, qid := range []string{"", "q-", "q", "q-07", "q-00", "q-+7", "q--7", "Q-7", "q-7x", "q-9223372036854775808", "x-7"} {
		if n, ok := ParseQuantumID(qid); ok {
			t.Errorf("%q: parsed to %d, want not of the form", qid, n)
		}
	}
}

// FuzzHeartbeatCodec feeds arbitrary bytes to both body decoders. Neither
// may panic, and a body either accepts re-encodes to exactly itself.
func FuzzHeartbeatCodec(f *testing.F) {
	for _, req := range heartbeatRequests() {
		f.Add(AppendHeartbeatRequest(nil, req))
	}
	for _, resp := range heartbeatResponses() {
		b, err := AppendHeartbeatResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte(`{"node_id":"n1","completed":["q-1"]}`))
	// A reply of two launches as it was before front-coded job IDs.
	f.Add([]byte{2, 8, 3, 1, 'j', 2, 3, 3, 1, 'j', 4, 5})
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, err := DecodeHeartbeatRequest(body); err == nil {
			if re := AppendHeartbeatRequest(nil, req); !bytes.Equal(re, body) {
				t.Fatalf("accepted request is not canonical:\n in %x\nout %x", body, re)
			}
		}
		if resp, err := DecodeHeartbeatResponse(body); err == nil {
			if re, err := AppendHeartbeatResponse(nil, resp); err != nil || !bytes.Equal(re, body) {
				t.Fatalf("accepted reply is not canonical (%v):\n in %x\nout %x", err, body, re)
			}
		}
	})
}
