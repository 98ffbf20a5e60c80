package rmserver

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/trace"
)

// serve answers one request through h, under the Content-Type Client
// sends to that path and with the given Accept-Encoding header when it is
// not empty.
func serve(h http.Handler, method, path, body, acceptEncoding string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	switch path {
	case rmproto.PathHeartbeat:
		req.Header.Set("Content-Type", rmproto.HeartbeatMediaType)
	case rmproto.PathWorkflows, rmproto.PathAdHoc:
		req.Header.Set("Content-Type", rmproto.SubmitMediaType)
	default:
		req.Header.Set("Content-Type", "application/json")
	}
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// hbBody is a heartbeat request body, as Client sends it.
func hbBody(nodeID string, completed ...string) string {
	return string(rmproto.AppendHeartbeatRequest(nil, rmproto.HeartbeatRequest{NodeID: nodeID, Completed: completed}))
}

// adhocBody is an ad-hoc request body for a one-task job, as Client sends
// it.
func adhocBody(t testing.TB, id string) string {
	return adhocRecBody(t, trace.AdHocRecord{ID: id, Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 512})
}

func adhocRecBody(t testing.TB, rec trace.AdHocRecord) string {
	t.Helper()
	b, err := rmproto.AppendSubmitAdHocRequest(nil, rmproto.SubmitAdHocRequest{Job: rec})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wfBody is a workflow request body for a one-job workflow, as Client
// sends it.
func wfBody(t testing.TB, id string) string {
	return wfRecBody(t, trace.WorkflowRecord{ID: id, DeadlineSec: 600,
		Jobs: []trace.JobRecord{{Name: "a", Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 512}}})
}

func wfRecBody(t testing.TB, rec trace.WorkflowRecord) string {
	t.Helper()
	b, err := rmproto.AppendSubmitWorkflowRequest(nil, rmproto.SubmitWorkflowRequest{Workflow: rec})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func gunzip(p []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(p))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// TestReadPathNegotiation: status, metrics and a ship batch come back
// gzipped to a request whose Accept-Encoding lists gzip, and inflate to
// exactly the bytes a request without it gets; the control path's replies
// are plain whatever the request asks.
func TestReadPathNegotiation(t *testing.T) {
	c := newCluster(t, Config{}, &durable{})
	rm := c.rm
	c.register("n1", 8, 16*1024)
	submitBoth(t, rm)
	c.run(3)
	h := rm.Handler()
	serve(h, http.MethodGet, rmproto.PathStatus, "", "") // commits the last heartbeat: the answers below do not move

	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, rmproto.PathStatus, ""},
		{http.MethodGet, "/metrics", ""},
		{http.MethodPost, rmproto.PathShip, `{"epoch":1,"from":{"gen":0,"records":0,"bytes":0}}`},
	} {
		plain := serve(h, c.method, c.path, c.body, "")
		if plain.Code != http.StatusOK || plain.Header().Get("Content-Encoding") != "" {
			t.Fatalf("%s without Accept-Encoding: %d, Content-Encoding %q", c.path, plain.Code, plain.Header().Get("Content-Encoding"))
		}
		for ae, compressed := range map[string]bool{
			"gzip": true, "deflate, GZIP;q=0.5": true, "br;q=1, gzip": true,
			"gzip;q=0": false, "gzip; q=0.000": false, "br": false, "identity": false, "*": false,
		} {
			rec := serve(h, c.method, c.path, c.body, ae)
			body := rec.Body.Bytes()
			what := c.path + " with Accept-Encoding " + strconv.Quote(ae)
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) || rec.Header().Get("Vary") != "Accept-Encoding" {
				t.Fatalf("%s: %d, Content-Length %q for %d bytes, Vary %q", what, rec.Code, rec.Header().Get("Content-Length"), len(body), rec.Header().Get("Vary"))
			}
			if got := rec.Header().Get("Content-Encoding") == "gzip"; got != compressed {
				t.Fatalf("%s: Content-Encoding %q, want gzip %v", what, rec.Header().Get("Content-Encoding"), compressed)
			}
			if compressed {
				var err error
				if body, err = gunzip(body); err != nil {
					t.Fatalf("%s: inflate: %v", what, err)
				}
			}
			if !bytes.Equal(body, plain.Body.Bytes()) {
				t.Fatalf("%s: decodes to\n%s\nwant the plain bytes\n%s", what, body, plain.Body)
			}
		}
	}

	for _, c := range []struct{ path, body string }{
		{rmproto.PathHeartbeat, hbBody("n1")},
		{rmproto.PathTick, `{}`},
		{rmproto.PathWorkflows, wfBody(t, "wf-2")},
		{rmproto.PathAdHoc, adhocBody(t, "a2")},
		{rmproto.PathRegister, `{"node_id":"n2","capacity":{"vcores":1,"memory_mb":1024}}`},
	} {
		rec := serve(h, http.MethodPost, c.path, c.body, "gzip")
		valid := json.Valid(rec.Body.Bytes())
		switch c.path {
		case rmproto.PathHeartbeat:
			_, err := rmproto.DecodeHeartbeatResponse(rec.Body.Bytes())
			valid = err == nil
		case rmproto.PathWorkflows, rmproto.PathAdHoc:
			resp, err := rmproto.DecodeSubmitResponse(rec.Body.Bytes())
			valid = err == nil && resp.Accepted
		}
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "" || !valid {
			t.Errorf("%s asking for gzip: %d, Content-Encoding %q, body %q; want a plain 200", c.path, rec.Code, rec.Header().Get("Content-Encoding"), rec.Body)
		}
	}
}

// TestRequestBodyTrailingData: a body is one value — one JSON value, or
// one binary heartbeat or submission. Anything after a binary value, and
// anything but whitespace after a JSON value, is a 400 naming the trailing
// data, and the value before it is not acted on — two concatenated
// heartbeats do not beat the first node, two concatenated submissions admit
// neither, two concatenated registrations register neither node.
func TestRequestBodyTrailingData(t *testing.T) {
	reg := func(id string) string {
		return `{"node_id":"` + id + `","capacity":{"vcores":1,"memory_mb":1024}}`
	}
	for _, c := range []struct {
		path, body string
		ok         bool
	}{
		{rmproto.PathHeartbeat, hbBody("n1") + hbBody("n2"), false},
		{rmproto.PathHeartbeat, hbBody("n1") + " x", false},
		{rmproto.PathHeartbeat, hbBody("n1") + "}", false},
		{rmproto.PathHeartbeat, hbBody("n1") + " null", false},
		{rmproto.PathHeartbeat, hbBody("n1") + " \n\t\r\n", false},
		{rmproto.PathHeartbeat, hbBody("n1"), true},
		{rmproto.PathAdHoc, adhocBody(t, "a") + adhocBody(t, "b"), false},
		{rmproto.PathAdHoc, adhocBody(t, "a") + "\n", false},
		{rmproto.PathAdHoc, adhocBody(t, "a"), true},
		{rmproto.PathWorkflows, wfBody(t, "w1") + " " + wfBody(t, "w2"), false},
		{rmproto.PathWorkflows, wfBody(t, "w1") + "\n", false},
		{rmproto.PathWorkflows, wfBody(t, "w1"), true},
		{rmproto.PathRegister, reg("n3") + reg("n4"), false},
		{rmproto.PathRegister, reg("n3") + " x", false},
		{rmproto.PathRegister, reg("n3") + " \n", true},
	} {
		cl := newCluster(t, Config{}, nil)
		rm := cl.rm
		cl.register("n1", 4, 8192)
		cl.register("n2", 4, 8192)
		seen := func() [2]time.Time {
			rm.mu.Lock()
			defer rm.mu.Unlock()
			return [2]time.Time{rm.byID["n1"].lastSeen, rm.byID["n2"].lastSeen}
		}
		before := seen()
		rec := serve(rm.Handler(), http.MethodPost, c.path, c.body, "")
		if c.ok {
			if rec.Code != http.StatusOK {
				t.Errorf("%s %q: %d %s, want 200", c.path, c.body, rec.Code, rec.Body)
			}
			continue
		}
		var e rmproto.Error
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Message, "trailing") {
			t.Errorf("%s %q: %d %s, want a 400 naming the trailing data", c.path, c.body, rec.Code, rec.Body)
		}
		if st := rm.Status(); len(st.Jobs) != 0 || st.Nodes != 2 || seen() != before {
			t.Errorf("%s %q: refused, yet %d jobs admitted, %d nodes live or a node heartbeaten", c.path, c.body, len(st.Jobs), st.Nodes)
		}
	}
}

// TestHeartbeatWireIsCompact is the rot guard for the heartbeat encoding,
// as a byte count: a reply of four launches crosses the wire in at most 16 B
// a launch, and Client decodes exactly what Server.Heartbeat hands a twin
// server in the same state.
func TestHeartbeatWireIsCompact(t *testing.T) {
	twin := func() *cluster {
		c := newCluster(t, Config{}, nil)
		rm := c.rm
		c.register("n1", 4, 4*2048)
		for i := 0; i < 4; i++ {
			if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
				ID: fmt.Sprintf("ah%05d", i), Tasks: 1, TaskDurSec: 600, DemandVCores: 1, DemandMemMB: 2048,
			}}); err != nil {
				t.Fatalf("SubmitAdHoc: %v", err)
			}
		}
		c.tick()
		return c
	}
	want := twin().beat("n1", nil)
	ts := httptest.NewServer(twin().rm.Handler())
	defer ts.Close()
	rt := &countingRT{rt: http.DefaultTransport}
	got, err := NewClient(ts.URL, &http.Client{Transport: rt}).Heartbeat(context.Background(), rmproto.HeartbeatRequest{NodeID: "n1"})
	if err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	if len(want) != 4 || !reflect.DeepEqual(got.Launch, want) {
		t.Fatalf("Client decoded %+v, Server.Heartbeat handed %+v; want the same four launches", got.Launch, want)
	}
	wire, _ := rt.sizes()
	if wire > 4*16 {
		t.Errorf("a reply of 4 launches crossed the wire in %d B, ceiling %d B", wire, 4*16)
	}
}

// TestHeartbeatRefusals: a heartbeat under any Content-Type but the binary
// one — a curl or JSON client — is a 415 naming the type and its encoder,
// and a malformed binary body a 400 naming what is wrong; neither beats the
// node. Registration stays JSON.
func TestHeartbeatRefusals(t *testing.T) {
	rm := newCluster(t, Config{}, nil).rm
	h := rm.Handler()
	if rec := serve(h, http.MethodPost, rmproto.PathRegister, `{"node_id":"n1","capacity":{"vcores":4,"memory_mb":8192}}`, ""); rec.Code != http.StatusOK {
		t.Fatalf("JSON registration: %d %s", rec.Code, rec.Body)
	}
	lastSeen := func() time.Time {
		rm.mu.Lock()
		defer rm.mu.Unlock()
		return rm.byID["n1"].lastSeen
	}
	registered := lastSeen()
	heard := func() bool { return !lastSeen().Equal(registered) }
	for _, c := range []struct {
		contentType, body string
		status            int
		want              []string
	}{
		{"application/json", `{"node_id":"n1"}`, http.StatusUnsupportedMediaType, []string{rmproto.HeartbeatMediaType, "rmproto.AppendHeartbeatRequest", "application/json"}},
		{"", hbBody("n1"), http.StatusUnsupportedMediaType, []string{rmproto.HeartbeatMediaType}},
		{"application/x-www-form-urlencoded", hbBody("n1"), http.StatusUnsupportedMediaType, []string{rmproto.HeartbeatMediaType}},
		// A node built before front-coded replies: told the type it needs.
		{"application/x-flowtime-heartbeat", hbBody("n1"), http.StatusUnsupportedMediaType, []string{rmproto.HeartbeatMediaType}},
		{rmproto.HeartbeatMediaType, "\x02n1\x81\x00", http.StatusBadRequest, []string{"non-minimal"}},
		{rmproto.HeartbeatMediaType, "\x02n1\x09\x03", http.StatusBadRequest, []string{"exceeds"}},
		{rmproto.HeartbeatMediaType, hbBody("n1") + "\x00", http.StatusBadRequest, []string{"trailing"}},
		{rmproto.HeartbeatMediaType, "\x02n1\x01\x00\x03q-1", http.StatusBadRequest, []string{`"q-1" spelled out`}},
	} {
		req := httptest.NewRequest(http.MethodPost, rmproto.PathHeartbeat, strings.NewReader(c.body))
		if c.contentType != "" {
			req.Header.Set("Content-Type", c.contentType)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var e rmproto.Error
		if rec.Code != c.status || json.Unmarshal(rec.Body.Bytes(), &e) != nil {
			t.Errorf("%q under %q: %d %s, want %d with an error body", c.body, c.contentType, rec.Code, rec.Body, c.status)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(e.Message, w) {
				t.Errorf("%q under %q: %q does not name %q", c.body, c.contentType, e.Message, w)
			}
		}
	}
	if heard() {
		t.Error("a refused heartbeat beat the node")
	}
	if rec := serve(h, http.MethodPost, rmproto.PathHeartbeat, hbBody("n1"), ""); rec.Code != http.StatusOK || !heard() {
		t.Errorf("a well-formed heartbeat after them: %d %s", rec.Code, rec.Body)
	}
}

// TestSubmitRefusals: a submission under any Content-Type but the binary
// one — a JSON body, or none — is a 415 naming the type, its encoder and
// ftsubmit; a malformed binary body is a 400 naming what is wrong; a body
// past maxRequestBytes is a 413. None admits anything, and a well-formed
// body after them is accepted.
func TestSubmitRefusals(t *testing.T) {
	cl := newCluster(t, Config{}, nil)
	cl.register("n1", 4, 8192)
	rm := cl.rm
	h := rm.Handler()
	jsonAdHoc := `{"job":{"id":"a","tasks":1,"task_dur_sec":10,"demand_vcores":1,"demand_mem_mb":512}}`
	for _, c := range []struct {
		path, contentType, body string
		status                  int
		want                    []string
	}{
		{rmproto.PathAdHoc, "application/json", jsonAdHoc, http.StatusUnsupportedMediaType,
			[]string{rmproto.SubmitMediaType, "rmproto.AppendSubmitAdHocRequest", "ftsubmit", "application/json"}},
		{rmproto.PathWorkflows, "application/json", `{"workflow":{"id":"w"}}`, http.StatusUnsupportedMediaType,
			[]string{rmproto.SubmitMediaType, "rmproto.AppendSubmitWorkflowRequest", "ftsubmit"}},
		{rmproto.PathAdHoc, "", adhocBody(t, "a"), http.StatusUnsupportedMediaType, []string{rmproto.SubmitMediaType, "ftsubmit"}},
		{rmproto.PathWorkflows, "", wfBody(t, "w"), http.StatusUnsupportedMediaType, []string{rmproto.SubmitMediaType, "ftsubmit"}},
		{rmproto.PathAdHoc, rmproto.SubmitMediaType, "\x01a\x80\x00\x01\x0a\x01\x01", http.StatusBadRequest, []string{"non-minimal"}},
		{rmproto.PathAdHoc, rmproto.SubmitMediaType, adhocBody(t, "a") + "\n", http.StatusBadRequest, []string{"trailing"}},
		{rmproto.PathAdHoc, rmproto.SubmitMediaType, adhocBody(t, "a")[:4], http.StatusBadRequest, []string{"ends inside"}},
		{rmproto.PathAdHoc, rmproto.SubmitMediaType, string(rawAdHoc(trace.AdHocRecord{ID: "a", Tasks: 1, TaskDurSec: -18446744073, DemandVCores: 1})),
			http.StatusBadRequest, []string{"overflows int64"}},
		{rmproto.PathAdHoc, rmproto.SubmitMediaType, adhocRecBody(t, trace.AdHocRecord{ID: "a", Tasks: 1, TaskDurSec: 18446744074, DemandVCores: 1}),
			http.StatusBadRequest, []string{"task_dur_sec"}},
		{rmproto.PathWorkflows, rmproto.SubmitMediaType, "\x01w\x00\x0a\x09\x01a", http.StatusBadRequest, []string{"exceeds"}},
		{rmproto.PathWorkflows, rmproto.SubmitMediaType, wfBody(t, "w") + wfBody(t, "w2"), http.StatusBadRequest, []string{"trailing"}},
		{rmproto.PathAdHoc, rmproto.SubmitMediaType, adhocBody(t, strings.Repeat("a", maxRequestBytes)), http.StatusRequestEntityTooLarge, nil},
		{rmproto.PathWorkflows, rmproto.SubmitMediaType, wfBody(t, strings.Repeat("w", maxRequestBytes)), http.StatusRequestEntityTooLarge, nil},
	} {
		req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
		if c.contentType != "" {
			req.Header.Set("Content-Type", c.contentType)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		what := fmt.Sprintf("%s %.40q under %q", c.path, c.body, c.contentType)
		var e rmproto.Error
		if rec.Code != c.status || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Message == "" {
			t.Errorf("%s: %d %.200s, want %d with an error body", what, rec.Code, rec.Body, c.status)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(e.Message, w) {
				t.Errorf("%s: %q does not name %q", what, e.Message, w)
			}
		}
	}
	if st := rm.Status(); len(st.Jobs) != 0 {
		t.Fatalf("refused submissions admitted %d jobs", len(st.Jobs))
	}
	for path, body := range map[string]string{rmproto.PathAdHoc: adhocBody(t, "a"), rmproto.PathWorkflows: wfBody(t, "w")} {
		if rec := serve(h, http.MethodPost, path, body, ""); rec.Code != http.StatusOK {
			t.Errorf("%s: a well-formed body after them: %d %s", path, rec.Code, rec.Body)
		}
	}
}

// TestSubmitWireIsCompact is the rot guard for the submission encoding,
// as a byte count over HTTP: a job shaped like the benchmark's ad-hoc jobs
// crosses in at most 16 B of request and 2 B of reply, and a 12-job
// workflow in under a third of the JSON the RM used to take for it. The
// client names each reply with the ID the RM no longer sends.
func TestSubmitWireIsCompact(t *testing.T) {
	rc := newCluster(t, Config{}, nil)
	rc.register("n1", 64, 256*1024)
	rm := rc.rm
	ts := httptest.NewServer(rm.Handler())
	defer ts.Close()
	rt := &countingRT{rt: http.DefaultTransport}
	c := NewClient(ts.URL, &http.Client{Transport: rt})
	ctx := context.Background()

	resp, err := c.SubmitAdHoc(ctx, rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "ah00017", Tasks: 9, TaskDurSec: 180, DemandVCores: 1, DemandMemMB: 1024,
	}})
	if err != nil || resp != (rmproto.SubmitResponse{Accepted: true, ID: "adhoc/ah00017"}) {
		t.Fatalf("SubmitAdHoc = %+v, %v", resp, err)
	}
	if sent, got := rt.sent.Load(), rt.wire.Load(); sent > 16 || got > 2 {
		t.Errorf("an ad-hoc job crossed in %d B of request and %d B of reply, ceilings 16 and 2", sent, got)
	}

	wf := trace.WorkflowRecord{ID: "wf0007", DeadlineSec: 7200}
	for i := 0; i < 12; i++ {
		wf.Jobs = append(wf.Jobs, trace.JobRecord{Name: fmt.Sprintf("InvertedIndex-%d", i), Tasks: 16 + i,
			TaskDurSec: 60 + 10*int64(i), ActualTaskDurSec: 75 + 10*int64(i), DemandVCores: 2, DemandMemMB: 4096})
		if i > 0 {
			wf.Deps = append(wf.Deps, [2]int{(i - 1) / 2, i})
		}
	}
	sent0 := rt.sent.Load()
	resp, err = c.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{Workflow: wf})
	if err != nil || !resp.Accepted || resp.ID != wf.ID {
		t.Fatalf("SubmitWorkflow = %+v, %v", resp, err)
	}
	js, err := json.Marshal(struct {
		Workflow trace.WorkflowRecord `json:"workflow"`
	}{wf})
	if err != nil {
		t.Fatal(err)
	}
	if sent := rt.sent.Load() - sent0; 3*sent >= int64(len(js)) {
		t.Errorf("a 12-job workflow crossed in %d B, not under a third of its %d B of JSON", sent, len(js))
	}
	if st := rm.Status(); len(st.Jobs) != 13 {
		t.Errorf("the RM holds %d jobs, want 13", len(st.Jobs))
	}
}
