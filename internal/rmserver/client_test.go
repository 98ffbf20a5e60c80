package rmserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
)

// swapHandler serves whichever RM is current behind one URL — a restart,
// as a client sees it — and records each status request's cursor.
type swapHandler struct {
	cur     atomic.Pointer[http.Handler]
	mu      sync.Mutex
	cursors []string // "done_after/instance" per GET /v1/status
}

func (h *swapHandler) serve(rm *Server) { hd := rm.Handler(); h.cur.Store(&hd) }

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == rmproto.PathStatus {
		q := r.URL.Query()
		h.mu.Lock()
		h.cursors = append(h.cursors, q.Get(rmproto.QueryDoneAfter)+"/"+q.Get(rmproto.QueryInstance))
		h.mu.Unlock()
	}
	(*h.cur.Load()).ServeHTTP(w, r)
}

func (h *swapHandler) lastCursor() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cursors[len(h.cursors)-1]
}

// truncateOnce cuts the first 200 response's body in half, the way a
// connection dropped mid-body would.
type truncateOnce struct {
	rt   http.RoundTripper
	done atomic.Bool
}

func (tr *truncateOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := tr.rt.RoundTrip(req)
	if err != nil || tr.done.Swap(true) {
		return resp, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
	return resp, nil
}

// TestClientDoneCursor pins the client's cursor hygiene: the cache of
// completed jobs is shared by copies for the same base and dropped by
// WithBase and by an instance change, moves only on a fully decoded 200,
// and is never aliased by what Status returns.
func TestClientDoneCursor(t *testing.T) {
	ctx := context.Background()
	rm := completedRM(t, sched.NewFIFO(), 30, 3)
	instance := rm.instance
	h := &swapHandler{}
	h.serve(rm)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL, ts.Client())
	status := func(c *Client, what, wantCursor string, want *Server) rmproto.StatusResponse {
		t.Helper()
		st, err := c.Status(ctx)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := h.lastCursor(); got != wantCursor {
			t.Errorf("%s sent cursor %q, want %q", what, got, wantCursor)
		}
		sameJobTable(t, what, st.Jobs, want.Status().Jobs)
		return st
	}
	first := status(c, "first Status", "0/", rm)
	status(c, "second Status", "30/"+instance, rm)
	status(c.WithPolicy(RetryPolicy{Backoff: Backoff{MaxAttempts: 2}}), "WithPolicy copy", "30/"+instance, rm)
	status(c.WithBase(ts.URL), "WithBase copy", "0/", rm)

	// What Status returned belongs to the caller: scribbling on it must
	// not reach the cache or a later result.
	for i := range first.Jobs {
		first.Jobs[i].ID = "scribbled"
	}
	status(c, "Status after the caller overwrote an earlier result", "30/"+instance, rm)

	// A 200 that dies mid-body moves nothing: the retry asks from the
	// same cursor, and the result is whole.
	flaky := NewClient(ts.URL, &http.Client{Transport: &truncateOnce{rt: http.DefaultTransport}}).
		WithPolicy(RetryPolicy{Backoff: Backoff{MaxAttempts: 3, Base: time.Millisecond, Max: time.Millisecond}})
	status(flaky, "Status through a truncated first attempt", "0/", rm)
	if n := len(h.cursors); h.cursors[n-2] != "0/" {
		t.Errorf("attempts sent cursors %q, want the truncated one to have been 0/ too", h.cursors[n-2:])
	}

	// The RM restarts behind the same URL with a shorter archive: the old
	// cursor is sent once, answered from 0 under the new instance, and the
	// client's table is the new RM's.
	rm2 := completedRM(t, sched.NewFIFO(), 5, 2)
	h.serve(rm2)
	status(c, "first Status after the restart", "30/"+instance, rm2)
	status(c, "second Status after the restart", "5/"+rm2.instance, rm2)

	// A cursor past the archive's end, or under a wrong instance, is
	// answered whole; a malformed one is a 400 with an error body.
	for query, wantFrom := range map[string]int{
		"done_after=3&instance=" + rm2.instance: 3,
		"done_after=5&instance=" + rm2.instance: 5,
		"done_after=6&instance=" + rm2.instance: 0,
		"done_after=3&instance=" + instance:     0,
		"done_after=3":                          0,
		"":                                      0,
	} {
		var st rmproto.StatusResponse
		if code := getJSON(t, ts.URL+rmproto.PathStatus+"?"+query, &st); code != http.StatusOK {
			t.Fatalf("GET ?%s: %d", query, code)
		}
		if d := st.Done; d == nil || d.From != wantFrom || d.Total != 5 || len(d.Jobs) != 5-wantFrom || len(st.Jobs) != 2 {
			t.Errorf("GET ?%s: done block %+v with %d live jobs, want from %d of 5 and 2 live", query, d, len(st.Jobs), wantFrom)
		}
	}
	for _, query := range []string{"done_after=-1", "done_after=x", "done_after=1e3", "done_after=99999999999999999999"} {
		var e rmproto.Error
		if code := getJSON(t, ts.URL+rmproto.PathStatus+"?"+query, &e); code != http.StatusBadRequest || !strings.Contains(e.Message, "done_after") {
			t.Errorf("GET ?%s: %d %+v, want 400 naming done_after", query, code, e)
		}
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// TestClientStatusConcurrent shares one client between goroutines while
// jobs keep completing; run under -race it checks the cache's locking,
// and every result must be a whole, sorted table.
func TestClientStatusConcurrent(t *testing.T) {
	rm := completedRM(t, sched.NewFIFO(), 50, 40)
	ts := httptest.NewServer(rm.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				st, err := c.Status(context.Background())
				if err != nil {
					t.Errorf("Status: %v", err)
					return
				}
				if len(st.Jobs) != 90 || st.Summary.Completed+st.Summary.Pending+st.Summary.Running != 90 {
					t.Errorf("Status lists %d jobs, summary %+v, want 90", len(st.Jobs), st.Summary)
					return
				}
				for k := 1; k < len(st.Jobs); k++ {
					if st.Jobs[k-1].ID >= st.Jobs[k].ID {
						t.Errorf("jobs %q and %q out of order or repeated", st.Jobs[k-1].ID, st.Jobs[k].ID)
						return
					}
				}
			}
		}()
	}
	// Meanwhile the live jobs get shortened to one slot's work and finish.
	rm.mu.Lock()
	for _, j := range rm.jobs {
		j.total = j.parallelCap
	}
	rm.mu.Unlock()
	var held []string
	for i := 0; i < 3; i++ {
		if err := rm.Tick(time.Now()); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: held}, time.Now())
		if err != nil {
			t.Fatalf("Heartbeat: %v", err)
		}
		held = quantumIDs(resp.Launch)
	}
	wg.Wait()
	if st, err := c.Status(context.Background()); err != nil || st.Summary.Completed != 90 {
		t.Errorf("final Status: %+v, %v; want 90 completed", st.Summary, err)
	}
}

// FuzzStatusQuery feeds GET /v1/status arbitrary query strings: the
// answer is a 400 with an error body or a 200 whose done block is a
// consistent suffix of the archive — never a panic, never a 5xx.
func FuzzStatusQuery(f *testing.F) {
	rm := completedRM(f, sched.NewFIFO(), 7, 2)
	h := rm.Handler()
	for _, seed := range []string{
		"", "done_after=3", "done_after=3&instance=" + rm.instance, "done_after=8&instance=" + rm.instance,
		"done_after=-1", "done_after=0x10", "done_after=%zz", "instance=%00&done_after=+1", "done_after=1&done_after=2",
		"done_after=9223372036854775808", "a=b;c=d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		req := httptest.NewRequest(http.MethodGet, rmproto.PathStatus, nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
			var e rmproto.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Message == "" {
				t.Fatalf("?%s: 400 with body %q", rawQuery, rec.Body)
			}
		case http.StatusOK:
			var st rmproto.StatusResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("?%s: 200 with undecodable body: %v", rawQuery, err)
			}
			d := st.Done
			if d == nil || d.Total != 7 || d.From < 0 || d.From+len(d.Jobs) != d.Total || len(st.Jobs) != 2 {
				t.Fatalf("?%s: done block %+v with %d live jobs", rawQuery, d, len(st.Jobs))
			}
			q, _ := url.ParseQuery(rawQuery)
			if n, err := strconv.Atoi(q.Get(rmproto.QueryDoneAfter)); d.From != 0 && (err != nil || n != d.From || q.Get(rmproto.QueryInstance) != rm.instance) {
				t.Fatalf("?%s: answered from %d", rawQuery, d.From)
			}
		default:
			t.Fatalf("?%s: status %d", rawQuery, rec.Code)
		}
	})
}
