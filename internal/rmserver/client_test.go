package rmserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
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
	cursors []string // "done_after/instance/live_after" per GET /v1/status
}

func (h *swapHandler) serve(rm *Server) { hd := rm.Handler(); h.cur.Store(&hd) }

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == rmproto.PathStatus {
		q := r.URL.Query()
		h.mu.Lock()
		h.cursors = append(h.cursors, q.Get(rmproto.QueryDoneAfter)+"/"+q.Get(rmproto.QueryInstance)+"/"+q.Get(rmproto.QueryLiveAfter))
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
// completed and live jobs is shared by copies for the same base and
// dropped by WithBase and by an instance change, moves only on a fully
// decoded 200, and is never aliased by what Status returns. Both RMs
// here number their live list 1 (completedRM's own Status) and nothing
// changes it.
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
	first := status(c, "first Status", "0//0", rm)
	status(c, "second Status", "30/"+instance+"/1", rm)
	status(c.WithPolicy(RetryPolicy{Backoff: Backoff{MaxAttempts: 2}}), "WithPolicy copy", "30/"+instance+"/1", rm)
	status(c.WithBase(ts.URL), "WithBase copy", "0//0", rm)

	// What Status returned belongs to the caller: scribbling on it must
	// not reach the cache or a later result.
	for i := range first.Jobs {
		first.Jobs[i].ID = "scribbled"
	}
	status(c, "Status after the caller overwrote an earlier result", "30/"+instance+"/1", rm)

	// A 200 that dies mid-body moves nothing: the retry asks from the
	// same cursor, and the result is whole.
	flaky := NewClient(ts.URL, &http.Client{Transport: &truncateOnce{rt: http.DefaultTransport}}).
		WithPolicy(RetryPolicy{Backoff: Backoff{MaxAttempts: 3, Base: time.Millisecond, Max: time.Millisecond}})
	status(flaky, "Status through a truncated first attempt", "0//0", rm)
	if n := len(h.cursors); h.cursors[n-2] != "0//0" {
		t.Errorf("attempts sent cursors %q, want the truncated one to have been 0//0 too", h.cursors[n-2:])
	}

	// The RM restarts behind the same URL with a shorter archive: the old
	// cursors are sent once, answered from 0 under the new instance, and
	// the client's table is the new RM's.
	rm2 := completedRM(t, sched.NewFIFO(), 5, 2)
	h.serve(rm2)
	status(c, "first Status after the restart", "30/"+instance+"/1", rm2)
	status(c, "second Status after the restart", "5/"+rm2.instance+"/1", rm2)

	// A cursor past the archive's end or the live list's number, or under
	// a wrong instance, is answered whole; a malformed one is a 400 with
	// an error body.
	for query, want := range map[string]struct{ from, live int }{
		"done_after=3&instance=" + rm2.instance:               {3, 2},
		"done_after=5&instance=" + rm2.instance:               {5, 2},
		"done_after=6&instance=" + rm2.instance:               {0, 2},
		"done_after=3&instance=" + instance:                   {0, 2},
		"done_after=3":                                        {0, 2},
		"":                                                    {0, 2},
		"live_after=1&instance=" + rm2.instance:               {0, 0},
		"done_after=5&live_after=1&instance=" + rm2.instance:  {5, 0},
		"done_after=5&live_after=0&instance=" + rm2.instance:  {5, 2},
		"done_after=5&live_after=2&instance=" + rm2.instance:  {5, 2},
		"done_after=5&live_after=1&instance=" + instance:      {0, 2},
		"done_after=5&live_after=1":                           {0, 2},
		"done_after=6&live_after=1&instance=" + rm2.instance:  {0, 0},
		"done_after=0&live_after=99&instance=" + rm2.instance: {0, 2},
	} {
		var st rmproto.StatusResponse
		if code := getJSON(t, ts.URL+rmproto.PathStatus+"?"+query, &st); code != http.StatusOK {
			t.Fatalf("GET ?%s: %d", query, code)
		}
		if d := st.Done; d == nil || d.From != want.from || d.Total != 5 || len(d.Jobs) != 5-want.from || len(st.Jobs) != want.live || st.LiveChange != 1 {
			t.Errorf("GET ?%s: done block %+v with %d live jobs as of change %d, want from %d of 5 and %d live as of 1",
				query, d, len(st.Jobs), st.LiveChange, want.from, want.live)
		}
	}
	for _, param := range []string{rmproto.QueryDoneAfter, rmproto.QueryLiveAfter} {
		for _, v := range []string{"-1", "x", "1e3", "99999999999999999999"} {
			query := param + "=" + v
			var e rmproto.Error
			if code := getJSON(t, ts.URL+rmproto.PathStatus+"?"+query, &e); code != http.StatusBadRequest || !strings.Contains(e.Message, param) {
				t.Errorf("GET ?%s: %d %+v, want 400 naming %s", query, code, e, param)
			}
		}
	}
}

// handlerRT serves a client's requests from a handler in the calling
// goroutine, so a handler may make calls of its own mid-request.
type handlerRT struct{ h http.Handler }

func (rt handlerRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	rt.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TestClientLiveRefetch: a status response that does not continue the
// client's live mirror is not applied, and the same call asks again for
// every live job — whether another call moved the mirror while this one
// was in flight, or the changes it carries do not add up to its Summary.
func TestClientLiveRefetch(t *testing.T) {
	ctx := context.Background()
	rm := completedRM(t, sched.NewFIFO(), 5, 4)
	h := &swapHandler{}
	h.serve(rm)
	var inFlight func() // run inside the next request with a live cursor
	drop := ""          // left out of the next answer to a live cursor
	c := NewClient("http://rm", &http.Client{Transport: handlerRT{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get(rmproto.QueryLiveAfter) == "0" {
			h.ServeHTTP(w, r)
			return
		}
		if f := inFlight; f != nil {
			inFlight = nil
			f()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Header().Get("Content-Encoding") == "gzip" {
			var err error
			if body, err = gunzip(body); err != nil {
				t.Fatalf("inflate: %v", err)
			}
		}
		var st rmproto.StatusResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decode: %v", err)
		}
		st.Jobs = slices.DeleteFunc(st.Jobs, func(j rmproto.JobStatus) bool { return j.ID == drop })
		drop = ""
		writeJSON(w, rec.Code, st)
	})}})
	status := func(what, wantCursor string) {
		t.Helper()
		st, err := c.Status(ctx)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := h.lastCursor(); got != wantCursor {
			t.Errorf("%s: last request's cursor %q, want %q", what, got, wantCursor)
		}
		sameJobTable(t, what, st.Jobs, rm.Status().Jobs)
	}
	status("first Status", "0//0")
	status("second Status", "5/"+rm.instance+"/1")

	inFlight = func() {
		tick(t, rm) // the four live jobs start running
		status("a Status that overtakes another", "5/"+rm.instance+"/1")
	}
	status("the overtaken Status", "5/"+rm.instance+"/0")
	if n := len(h.cursors); h.cursors[n-2] != "5/"+rm.instance+"/1" {
		t.Errorf("the overtaken Status first sent %q, want its own live cursor", h.cursors[n-2])
	}
	status("the Status after it", "5/"+rm.instance+"/2")

	submitAdHoc(t, rm, "fresh", 1, 10)
	drop = "adhoc/fresh"
	status("a Status whose changes lack a new job", "5/"+rm.instance+"/0")
	status("the Status after it", "5/"+rm.instance+"/3")
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
// jobs keep completing and the live ones keep changing; run under -race
// it checks the cache's locking, and every result must be a whole, sorted
// table that counts what its own Summary counts.
func TestClientStatusConcurrent(t *testing.T) {
	rm := completedRM(t, sched.NewFIFO(), 50, 40)
	ts := httptest.NewServer(rm.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	// Every other live job gets shortened to one slot's work and finishes;
	// the rest start and keep running, their delivered volume growing every
	// slot.
	rm.mu.Lock()
	for id, j := range rm.jobs {
		if id[len(id)-1]%2 == 0 {
			j.total = j.parallelCap
		}
	}
	rm.mu.Unlock()
	var calls atomic.Int64
	ticked, polled := make(chan struct{}), make(chan struct{})
	go func() { // a slot per eight calls, so that calls straddle changes
		defer close(ticked)
		var held []string
		for i := int64(1); i <= 12; i++ {
			for calls.Load() < 8*i {
				select {
				case <-polled: // every caller gave up
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
			if err := rm.Tick(time.Now()); err != nil {
				t.Errorf("Tick: %v", err)
				return
			}
			resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: held}, time.Now())
			if err != nil {
				t.Errorf("Heartbeat: %v", err)
				return
			}
			held = quantumIDs(resp.Launch)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-ticked:
					if i >= 25 {
						return
					}
				default:
				}
				st, err := c.Status(context.Background())
				if err != nil {
					t.Errorf("Status: %v", err)
					return
				}
				if len(st.Jobs) != 90 || st.Summary.Completed+st.Summary.Pending+st.Summary.Running != 90 {
					t.Errorf("Status lists %d jobs, summary %+v, want 90", len(st.Jobs), st.Summary)
					return
				}
				var sum rmproto.JobSummary
				for k, j := range st.Jobs {
					if k > 0 && st.Jobs[k-1].ID >= j.ID {
						t.Errorf("jobs %q and %q out of order or repeated", st.Jobs[k-1].ID, j.ID)
						return
					}
					switch j.State {
					case "pending":
						sum.Pending++
					case "running":
						sum.Running++
					case "completed":
						sum.Completed++
					}
				}
				if sum.Missed = st.Summary.Missed; sum != st.Summary {
					t.Errorf("table counts %+v, its summary %+v", sum, st.Summary)
					return
				}
				calls.Add(1)
			}
		}()
	}
	wg.Wait()
	close(polled)
	<-ticked
	st, err := c.Status(context.Background())
	if err != nil || st.Summary.Completed != 70 || st.Summary.Running != 20 {
		t.Errorf("final Status: %+v, %v; want 70 completed, 20 running", st.Summary, err)
	}
	sameJobTable(t, "final Status", st.Jobs, rm.Status().Jobs)
}

// FuzzStatusQuery feeds GET /v1/status arbitrary query strings: the
// answer is a 400 with an error body naming the malformed cursor, or a
// 200 whose done block is a consistent suffix of the archive and whose
// live list is empty for a cursor at the RM's change number (nothing
// changes here after completedRM's own Status numbered it 1) and whole
// for any other — never a panic, never a 5xx.
func FuzzStatusQuery(f *testing.F) {
	rm := completedRM(f, sched.NewFIFO(), 7, 2)
	h := rm.Handler()
	for _, seed := range []string{
		"", "done_after=3", "done_after=3&instance=" + rm.instance, "done_after=8&instance=" + rm.instance,
		"done_after=-1", "done_after=0x10", "done_after=%zz", "instance=%00&done_after=+1", "done_after=1&done_after=2",
		"done_after=9223372036854775808", "a=b;c=d",
		"live_after=1&instance=" + rm.instance, "done_after=7&live_after=1&instance=" + rm.instance,
		"live_after=2&instance=" + rm.instance, "live_after=1", "live_after=0&instance=" + rm.instance,
		"live_after=-1", "live_after=x&done_after=3", "done_after=x&live_after=x", "live_after=9223372036854775808",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		req := httptest.NewRequest(http.MethodGet, rmproto.PathStatus, nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		q, _ := url.ParseQuery(rawQuery)
		count := func(param string) (int, bool) {
			v := q.Get(param)
			n, err := strconv.Atoi(v)
			return n, v == "" || err == nil && n >= 0
		}
		doneAfter, doneOK := count(rmproto.QueryDoneAfter)
		liveAfter, liveOK := count(rmproto.QueryLiveAfter)
		malformed := "" // the parameter a 400 must name, checked in this order
		if !doneOK {
			malformed = rmproto.QueryDoneAfter
		} else if !liveOK {
			malformed = rmproto.QueryLiveAfter
		}
		switch rec.Code {
		case http.StatusBadRequest:
			var e rmproto.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Message == "" {
				t.Fatalf("?%s: 400 with body %q", rawQuery, rec.Body)
			}
			if malformed == "" || !strings.Contains(e.Message, malformed) {
				t.Fatalf("?%s: 400 %q, want one naming the malformed cursor %q", rawQuery, e.Message, malformed)
			}
		case http.StatusOK:
			var st rmproto.StatusResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("?%s: 200 with undecodable body: %v", rawQuery, err)
			}
			if malformed != "" {
				t.Fatalf("?%s: 200 for a malformed %s", rawQuery, malformed)
			}
			d := st.Done
			if d == nil || d.Total != 7 || d.From < 0 || d.From+len(d.Jobs) != d.Total || st.LiveChange != 1 {
				t.Fatalf("?%s: done block %+v, live change %d", rawQuery, d, st.LiveChange)
			}
			ours := q.Get(rmproto.QueryInstance) == rm.instance
			if d.From != 0 && (!ours || doneAfter != d.From) {
				t.Fatalf("?%s: answered from %d", rawQuery, d.From)
			}
			wantLive := 2
			if ours && liveAfter >= 1 && int64(liveAfter) <= st.LiveChange {
				wantLive = 0
			}
			if len(st.Jobs) != wantLive {
				t.Fatalf("?%s: %d live jobs, want %d", rawQuery, len(st.Jobs), wantLive)
			}
		default:
			t.Fatalf("?%s: status %d", rawQuery, rec.Code)
		}
	})
}
