package rmserver

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
)

// serve answers one request through h, with the given Accept-Encoding
// header when it is not empty.
func serve(h http.Handler, method, path, body, acceptEncoding string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
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
	rm, _ := newDurableRM(t, t.TempDir(), true)
	register(t, rm, "n1", 8, 16*1024)
	submitBoth(t, rm)
	runSlots(t, rm, "n1", 3, nil)
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
		{rmproto.PathHeartbeat, `{"node_id":"n1"}`},
		{rmproto.PathTick, `{}`},
		{rmproto.PathWorkflows, `{"workflow":{"id":"wf-2","deadline_sec":600,"jobs":[{"name":"a","tasks":1,"task_dur_sec":10,"demand_vcores":1,"demand_mem_mb":512}]}}`},
		{rmproto.PathAdHoc, `{"job":{"id":"a2","tasks":1,"task_dur_sec":10,"demand_vcores":1,"demand_mem_mb":512}}`},
		{rmproto.PathRegister, `{"node_id":"n2","capacity":{"vcores":1,"memory_mb":1024}}`},
	} {
		rec := serve(h, http.MethodPost, c.path, c.body, "gzip")
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "" || !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s asking for gzip: %d, Content-Encoding %q, body %q; want a plain 200", c.path, rec.Code, rec.Header().Get("Content-Encoding"), rec.Body)
		}
	}
}

// TestRequestBodyTrailingData: a body is one JSON value. Anything but
// whitespace after it is a 400 naming the trailing data, and the value
// before it is not acted on — two concatenated heartbeats do not beat the
// first node, two concatenated submissions admit neither.
func TestRequestBodyTrailingData(t *testing.T) {
	adhoc := func(id string) string {
		return `{"job":{"id":"` + id + `","tasks":1,"task_dur_sec":10,"demand_vcores":1,"demand_mem_mb":512}}`
	}
	wf := func(id string) string {
		return `{"workflow":{"id":"` + id + `","deadline_sec":600,"jobs":[{"name":"a","tasks":1,"task_dur_sec":10,"demand_vcores":1,"demand_mem_mb":512}]}}`
	}
	for _, c := range []struct {
		path, body string
		ok         bool
	}{
		{rmproto.PathHeartbeat, `{"node_id":"n1"}{"node_id":"n2"}`, false},
		{rmproto.PathHeartbeat, `{"node_id":"n1"} x`, false},
		{rmproto.PathHeartbeat, `{"node_id":"n1"}}`, false},
		{rmproto.PathHeartbeat, `{"node_id":"n1"} null`, false},
		{rmproto.PathHeartbeat, "{\"node_id\":\"n1\"} \n\t\r\n", true},
		{rmproto.PathAdHoc, adhoc("a") + adhoc("b"), false},
		{rmproto.PathAdHoc, adhoc("a") + "\n", true},
		{rmproto.PathWorkflows, wf("w1") + " " + wf("w2"), false},
		{rmproto.PathWorkflows, wf("w1") + "\n", true},
	} {
		rm := newRM(t, sched.NewFIFO())
		register(t, rm, "n1", 4, 8192)
		register(t, rm, "n2", 4, 8192)
		seen := func() [2]time.Time {
			rm.mu.Lock()
			defer rm.mu.Unlock()
			return [2]time.Time{rm.nodes["n1"].lastSeen, rm.nodes["n2"].lastSeen}
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
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Message, "trailing data") {
			t.Errorf("%s %q: %d %s, want a 400 naming the trailing data", c.path, c.body, rec.Code, rec.Body)
		}
		if st := rm.Status(); len(st.Jobs) != 0 || seen() != before {
			t.Errorf("%s %q: refused, yet %d jobs admitted or a node heartbeaten", c.path, c.body, len(st.Jobs))
		}
	}
}
