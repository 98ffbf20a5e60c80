package rmserver

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/trace"
)

func newOverloadedRM(t *testing.T, oc OverloadConfig) (*Server, *httptest.Server) {
	t.Helper()
	rm, err := New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO(), Overload: &oc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(rm.Handler())
	t.Cleanup(srv.Close)
	return rm, srv
}

func postBody(t *testing.T, url, contentType, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestOverloadShedsSubmissions saturates the submit class and asserts
// the full shed contract: 503, code "overloaded", Retry-After header,
// retry_after_ms body, and shed counters in /v1/status.
func TestOverloadShedsSubmissions(t *testing.T) {
	rm, srv := newOverloadedRM(t, OverloadConfig{
		SubmitConcurrency: 1,
		QueueDepth:        1,
		MaxWait:           30 * time.Millisecond,
		RetryAfter:        1500 * time.Millisecond,
	})

	// Occupy the single submit slot so HTTP submissions must queue.
	release, err := rm.admission.acquire(context.Background(), classSubmit)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer release()

	// First arrival queues (the only permitted waiter), times out after
	// MaxWait, and is shed with "queue_timeout".
	resp := postBody(t, srv.URL+rmproto.PathWorkflows, rmproto.SubmitMediaType, wfRecBody(t, trace.WorkflowRecord{ID: "wf1"}))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After header %q, want \"2\" (1.5s rounded up)", ra)
	}
	var e rmproto.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if e.Code != rmproto.CodeOverloaded {
		t.Errorf("code %q, want %q", e.Code, rmproto.CodeOverloaded)
	}
	if e.RetryAfterMs != 1500 {
		t.Errorf("retry_after_ms %d, want 1500", e.RetryAfterMs)
	}

	// Now hold a waiter in the queue and push one more arrival past
	// QueueDepth: shed immediately with "queue_full".
	waiterDone := make(chan error, 1)
	go func() {
		rel, err := rm.admission.acquire(context.Background(), classSubmit)
		if err == nil {
			rel()
		}
		waiterDone <- err
	}()
	deadline := time.Now().Add(time.Second)
	for rm.admission.submit.waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp2 := postBody(t, srv.URL+rmproto.PathWorkflows, rmproto.SubmitMediaType, wfRecBody(t, trace.WorkflowRecord{ID: "wf2"}))
	_, _ = io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("beyond-queue-depth status %d, want 503", resp2.StatusCode)
	}
	<-waiterDone

	st := rm.Status()
	if st.Overload == nil {
		t.Fatal("Status().Overload missing with Config.Overload set")
	}
	if st.Overload.ShedTotal < 2 {
		t.Errorf("ShedTotal = %d, want >= 2", st.Overload.ShedTotal)
	}
	if st.Overload.ShedByReason["queue_timeout"] == 0 || st.Overload.ShedByReason["queue_full"] == 0 {
		t.Errorf("ShedByReason = %v, want queue_timeout and queue_full entries", st.Overload.ShedByReason)
	}
}

// TestOverloadPriorityShedding proves confirms stay ahead: while the
// confirm class has queued waiters, new submissions are shed instantly
// with reason "priority", and heartbeats are still admitted once a
// confirm slot frees.
func TestOverloadPriorityShedding(t *testing.T) {
	rm, srv := newOverloadedRM(t, OverloadConfig{
		SubmitConcurrency:  4,
		ConfirmConcurrency: 1,
		QueueDepth:         4,
		MaxWait:            500 * time.Millisecond,
	})

	// Saturate the confirm class and park one waiter behind it.
	release, err := rm.admission.acquire(context.Background(), classConfirm)
	if err != nil {
		t.Fatalf("acquire confirm: %v", err)
	}
	waiterAdmitted := make(chan struct{})
	go func() {
		rel, err := rm.admission.acquire(context.Background(), classConfirm)
		if err == nil {
			rel()
		}
		close(waiterAdmitted)
	}()
	deadline := time.Now().Add(time.Second)
	for rm.admission.confirm.waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("confirm waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// A submission now sheds immediately — no queueing, reason "priority"
	// — even though the submit class itself has free slots.
	start := time.Now()
	resp := postBody(t, srv.URL+rmproto.PathAdHoc, rmproto.SubmitMediaType, adhocRecBody(t, trace.AdHocRecord{ID: "j1"}))
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during confirm pressure: status %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("priority shed took %v, want immediate (no queue wait)", elapsed)
	}
	if got := rm.Status().Overload.ShedByReason["priority"]; got == 0 {
		t.Error("no \"priority\" shed recorded")
	}

	// Freeing the confirm slot admits the queued confirm waiter.
	release()
	select {
	case <-waiterAdmitted:
	case <-time.After(2 * time.Second):
		t.Fatal("confirm waiter starved after slot freed")
	}
}

// TestOverloadConfirmsFlowDuringSubmitFlood is the headline property:
// heartbeat traffic is isolated from a saturated submit class.
func TestOverloadConfirmsFlowDuringSubmitFlood(t *testing.T) {
	rm, srv := newOverloadedRM(t, OverloadConfig{
		SubmitConcurrency: 1,
		QueueDepth:        1,
		MaxWait:           20 * time.Millisecond,
	})
	// Saturate submit entirely.
	release, err := rm.admission.acquire(context.Background(), classSubmit)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer release()

	resp := postBody(t, srv.URL+rmproto.PathRegister, "application/json",
		`{"node_id":"n1","capacity":{"vcores":4,"memory_mb":1024}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("register during submit flood: status %d body %s, want 200", resp.StatusCode, body)
	}
	hb, err := http.Post(srv.URL+rmproto.PathHeartbeat, rmproto.HeartbeatMediaType, strings.NewReader(hbBody("n1")))
	if err != nil {
		t.Fatalf("POST %s: %v", rmproto.PathHeartbeat, err)
	}
	_, _ = io.Copy(io.Discard, hb.Body)
	hb.Body.Close()
	if hb.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat during submit flood: status %d, want 200", hb.StatusCode)
	}
	if got := rm.Status().Nodes; got != 1 {
		t.Errorf("nodes = %d, want 1", got)
	}
}

// TestOverloadedCallsRetryable: a shed must be retryable so the
// client's policy backs off and retries rather than giving up.
func TestOverloadedCallsRetryable(t *testing.T) {
	err := error(&StatusError{StatusCode: http.StatusServiceUnavailable, Code: rmproto.CodeOverloaded})
	if !Retryable(err) {
		t.Error("overloaded 503 classified permanent")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Error("wire-form overloaded error does not match sentinel")
	}
}

// TestWatchdogStuckTick exercises trip latching: one trip per
// excursion, cleared by a tick, trippable again.
func TestWatchdogStuckTick(t *testing.T) {
	w := newWatchdog(WatchdogConfig{StuckTickAfter: 100 * time.Millisecond})
	t0 := time.Now()
	w.noteTick(t0)

	w.check(t0.Add(50*time.Millisecond), 0, false)
	if st := w.status(t0); st.StuckTick || st.Trips["stuck_tick"] != 0 {
		t.Fatalf("tripped early: %+v", st)
	}
	w.check(t0.Add(200*time.Millisecond), 0, false)
	w.check(t0.Add(300*time.Millisecond), 0, false) // same excursion
	if st := w.status(t0.Add(300 * time.Millisecond)); !st.StuckTick || st.Trips["stuck_tick"] != 1 {
		t.Fatalf("after stall: %+v, want active with exactly 1 trip", st)
	}
	// The tick clears the excursion; a second stall is a second trip.
	w.noteTick(t0.Add(310 * time.Millisecond))
	w.check(t0.Add(320*time.Millisecond), 0, false)
	if st := w.status(t0.Add(320 * time.Millisecond)); st.StuckTick {
		t.Fatalf("still active after tick: %+v", st)
	}
	w.check(t0.Add(600*time.Millisecond), 0, false)
	if st := w.status(t0.Add(600 * time.Millisecond)); st.Trips["stuck_tick"] != 2 {
		t.Fatalf("second excursion: %+v, want 2 trips", st)
	}
}

func TestWatchdogReplLag(t *testing.T) {
	w := newWatchdog(WatchdogConfig{ReplLagRecords: 3})
	now := time.Now()
	w.check(now, 10, false) // no follower: absence is not a fault
	if st := w.status(now); st.ReplLagExceeded {
		t.Fatal("lag detector tripped with no follower")
	}
	w.check(now, 5, true)
	w.check(now, 7, true) // same excursion
	if st := w.status(now); !st.ReplLagExceeded || st.Trips["repl_lag"] != 1 {
		t.Fatalf("lagging: %+v, want active with 1 trip", st)
	}
	w.check(now, 1, true) // caught up
	w.check(now, 9, true) // lags again
	if st := w.status(now); st.Trips["repl_lag"] != 2 {
		t.Fatalf("re-lag: %+v, want 2 trips", st)
	}
}

// TestMetricsExportOverloadAndWatchdog asserts the new series appear in
// /metrics with the documented names.
func TestMetricsExportOverloadAndWatchdog(t *testing.T) {
	rm, err := New(Config{
		SlotDur:   slotDur,
		Scheduler: sched.NewFIFO(),
		Overload:  &OverloadConfig{SubmitConcurrency: 1, QueueDepth: 1, MaxWait: 5 * time.Millisecond},
		Watchdog:  WatchdogConfig{StuckTickAfter: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(rm.Handler())
	defer srv.Close()

	// Provoke one shed and one stuck-tick trip so labeled series exist.
	release, _ := rm.admission.acquire(context.Background(), classSubmit)
	_, _ = rm.admission.acquire(context.Background(), classSubmit)
	release()
	rm.watchdog.noteTick(time.Now().Add(-time.Second))
	rm.CheckWatchdogs(time.Now())

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`flowtime_shed_total{reason="queue_timeout"} 1`,
		"flowtime_admission_queue_depth 0",
		"flowtime_retry_budget_exhausted_total",
		`flowtime_watchdog_trips_total{kind="stuck_tick"} 1`,
		"flowtime_watchdog_stuck_tick 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	st := rm.Status()
	if st.Watchdog == nil || !st.Watchdog.StuckTick {
		t.Errorf("Status().Watchdog = %+v, want stuck tick reported", st.Watchdog)
	}
}
