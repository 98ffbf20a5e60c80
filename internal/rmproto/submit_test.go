package rmproto

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"flowtime/internal/trace"
)

func workflowRequests() []SubmitWorkflowRequest {
	job := func(name string, tasks int, dur, actual int64) trace.JobRecord {
		return trace.JobRecord{Name: name, Tasks: tasks, TaskDurSec: dur, ActualTaskDurSec: actual, DemandVCores: 2, DemandMemMB: 4096}
	}
	return []SubmitWorkflowRequest{
		{},
		{Workflow: trace.WorkflowRecord{ID: "wf0001", DeadlineSec: 600, Jobs: []trace.JobRecord{job("a", 4, 30, 0)}}},
		{Workflow: trace.WorkflowRecord{ID: "wf0002", SubmitSec: 12, DeadlineSec: 7200,
			Jobs: []trace.JobRecord{job("InvertedIndex-0", 16, 60, 75), job("WordCount-1", 1, 1, 1), job("", 0, 0, 0)},
			Deps: [][2]int{{0, 1}, {0, 2}, {1, 2}}}},
		{Workflow: trace.WorkflowRecord{ID: "odd", DeadlineSec: math.MaxInt64, Deps: [][2]int{{7, math.MaxInt}}}},
	}
}

func adhocRequests() []SubmitAdHocRequest {
	return []SubmitAdHocRequest{
		{},
		{Job: trace.AdHocRecord{ID: "ah00017", Tasks: 9, TaskDurSec: 180, DemandVCores: 1, DemandMemMB: 1024}},
		{Job: trace.AdHocRecord{ID: "big", SubmitSec: 42, Tasks: math.MaxInt, TaskDurSec: math.MaxInt64, DemandVCores: 8, DemandMemMB: math.MaxInt64}},
	}
}

// TestSubmitCodecRoundTrip: decode∘encode is the identity on both requests
// and the reply (less its ID, which the reply does not carry), and the
// bytes are the journal's trace record.
func TestSubmitCodecRoundTrip(t *testing.T) {
	for _, req := range workflowRequests() {
		b, err := AppendSubmitWorkflowRequest(nil, req)
		if err != nil {
			t.Fatalf("workflow %+v: %v", req, err)
		}
		got, err := DecodeSubmitWorkflowRequest(b)
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Errorf("workflow %+v: decoded to %+v, %v", req, got, err)
		}
	}
	for _, req := range adhocRequests() {
		b, err := AppendSubmitAdHocRequest(nil, req)
		if err != nil {
			t.Fatalf("ad-hoc %+v: %v", req, err)
		}
		got, err := DecodeSubmitAdHocRequest(b)
		if err != nil || got != req {
			t.Errorf("ad-hoc %+v: decoded to %+v, %v", req, got, err)
		}
	}
	for _, resp := range []SubmitResponse{{}, {Accepted: true}, {BestEffort: true}, {Accepted: true, BestEffort: true}} {
		b, err := AppendSubmitResponse(nil, SubmitResponse{Accepted: resp.Accepted, ID: "adhoc/x", BestEffort: resp.BestEffort})
		if err != nil {
			t.Fatalf("reply %+v: %v", resp, err)
		}
		if got, err := DecodeSubmitResponse(b); err != nil || got != resp || len(b) != 2 {
			t.Errorf("reply %+v: %d bytes decoded to %+v, %v", resp, len(b), got, err)
		}
	}
	b, _ := AppendSubmitAdHocRequest(nil, adhocRequests()[1])
	want := []byte{7, 'a', 'h', '0', '0', '0', '1', '7', 0, 9, 0xb4, 0x01, 1, 0x80, 0x08}
	if !bytes.Equal(b, want) {
		t.Errorf("ad-hoc request encodes to %v, want %v", b, want)
	}
	b, _ = AppendSubmitWorkflowRequest(nil, workflowRequests()[1])
	want = []byte{6, 'w', 'f', '0', '0', '0', '1', 0, 0xd8, 0x04, 1, 1, 'a', 4, 30, 0, 2, 0x80, 0x20, 0}
	if !bytes.Equal(b, want) {
		t.Errorf("workflow request encodes to %v, want %v", b, want)
	}
}

// TestSubmitCodecRefusals: a negative number does not encode, and every
// body that is not exactly one encoder output fails to decode, with an
// error that names what is wrong.
func TestSubmitCodecRefusals(t *testing.T) {
	for name, req := range map[string]SubmitWorkflowRequest{
		"negative deadline":  {Workflow: trace.WorkflowRecord{DeadlineSec: -1}},
		"negative tasks":     {Workflow: trace.WorkflowRecord{Jobs: []trace.JobRecord{{Tasks: -1}}}},
		"negative dep index": {Workflow: trace.WorkflowRecord{Deps: [][2]int{{0, -1}}}},
	} {
		if b, err := AppendSubmitWorkflowRequest(nil, req); err == nil {
			t.Errorf("%s: encoded to %v", name, b)
		}
	}
	for name, req := range map[string]SubmitAdHocRequest{
		"negative submit":        {Job: trace.AdHocRecord{SubmitSec: -5}},
		"wrapping task duration": {Job: trace.AdHocRecord{TaskDurSec: -18446744073}},
	} {
		if b, err := AppendSubmitAdHocRequest(nil, req); err == nil {
			t.Errorf("%s: encoded to %v", name, b)
		}
	}

	const (
		adhoc = iota
		workflow
		reply
	)
	decode := func(kind int, body []byte) error {
		var err error
		switch kind {
		case adhoc:
			_, err = DecodeSubmitAdHocRequest(body)
		case workflow:
			_, err = DecodeSubmitWorkflowRequest(body)
		default:
			_, err = DecodeSubmitResponse(body)
		}
		return err
	}
	// Each accepted body is one edit away from the refused ones below it.
	for _, c := range []struct {
		name string
		kind int
		body []byte
	}{
		{"ad-hoc job", adhoc, []byte{1, 'a', 0, 2, 10, 1, 0x80, 0x04}},
		{"workflow of one job", workflow, []byte{1, 'w', 0, 0x58, 1, 1, 'j', 1, 10, 0, 1, 1, 0}},
		{"workflow of two with a dep", workflow, []byte{1, 'w', 0, 0x58, 2, 0, 1, 10, 0, 1, 1, 0, 1, 10, 0, 1, 1, 1, 0, 1}},
		{"empty workflow", workflow, []byte{0, 0, 0, 0, 0}},
		{"accepted best-effort", reply, []byte{1, 1}},
	} {
		if err := decode(c.kind, c.body); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	for _, c := range []struct {
		name, want string
		kind       int
		body       []byte
	}{
		{"non-minimal varint", "non-minimal", adhoc, []byte{1, 'a', 0, 2, 0x8a, 0x00, 1, 0x80, 0x04}},
		{"integer beyond int64", "overflows int64", adhoc, append([]byte{1, 'a', 0, 2}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 1)},
		{"ID beyond the input", "exceeds", adhoc, []byte{9, 'a', 0, 2, 10, 1, 0x80, 0x04}},
		{"torn ad-hoc job", "ends inside", adhoc, []byte{1, 'a', 0, 2, 10, 1, 0x80}},
		{"ad-hoc trailing bytes", "trailing", adhoc, []byte{1, 'a', 0, 2, 10, 1, 0x80, 0x04, 0}},
		{"job count beyond the input", "exceeds", workflow, []byte{1, 'w', 0, 0x58, 3, 1, 'j', 1, 10, 0, 1, 1, 0}},
		{"dep count beyond the input", "exceeds", workflow, []byte{1, 'w', 0, 0x58, 2, 0, 1, 10, 0, 1, 1, 0, 1, 10, 0, 1, 1, 2, 0, 1}},
		{"workflow non-minimal tasks", "non-minimal", workflow, []byte{1, 'w', 0, 0x58, 1, 1, 'j', 0x81, 0x00, 10, 0, 1, 1, 0}},
		{"workflow trailing bytes", "trailing", workflow, []byte{0, 0, 0, 0, 0, 0}},
		{"flag byte 2", "flag byte", reply, []byte{2, 0}},
		{"best-effort flag 0xff", "flag byte", reply, []byte{1, 0xff}},
		{"reply of one flag", "ends inside", reply, []byte{1}},
		{"reply trailing bytes", "trailing", reply, []byte{1, 0, 0}},
	} {
		if err := decode(c.kind, c.body); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// FuzzSubmitCodec feeds arbitrary bytes to the three submission body
// decoders. None may panic, and a body any of them accepts re-encodes to
// exactly itself.
func FuzzSubmitCodec(f *testing.F) {
	for _, req := range workflowRequests() {
		b, err := AppendSubmitWorkflowRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, req := range adhocRequests() {
		b, err := AppendSubmitAdHocRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{1, 0}) // an accepted reply
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte(`{"job":{"id":"a","tasks":1}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, err := DecodeSubmitWorkflowRequest(body); err == nil {
			if re, err := AppendSubmitWorkflowRequest(nil, req); err != nil || !bytes.Equal(re, body) {
				t.Fatalf("accepted workflow request is not canonical (%v):\n in %x\nout %x", err, body, re)
			}
		}
		if req, err := DecodeSubmitAdHocRequest(body); err == nil {
			if re, err := AppendSubmitAdHocRequest(nil, req); err != nil || !bytes.Equal(re, body) {
				t.Fatalf("accepted ad-hoc request is not canonical (%v):\n in %x\nout %x", err, body, re)
			}
		}
		if resp, err := DecodeSubmitResponse(body); err == nil {
			if re, err := AppendSubmitResponse(nil, resp); err != nil || !bytes.Equal(re, body) {
				t.Fatalf("accepted reply is not canonical (%v):\n in %x\nout %x", err, body, re)
			}
		}
	})
}
