package rmserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/trace"
)

// testLogf collects agent log lines without racing test shutdown.
func testLogf(t *testing.T) func(string, ...any) {
	var mu sync.Mutex
	done := false
	t.Cleanup(func() { mu.Lock(); done = true; mu.Unlock() })
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}

// serveRM serves rm's handler on ln until the returned shutdown func runs.
func serveRM(t *testing.T, rm *Server, ln net.Listener) (shutdown func()) {
	t.Helper()
	srv := &http.Server{Handler: rm.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return func() {
		_ = srv.Close()
		<-done
	}
}

// TestAgentRecoversFromRMRestart is the end-to-end resilience test over
// the real HTTP layer: a node agent registers with one RM process, the RM
// dies and a brand-new RM (empty state) comes up on the same address, and
// the agent must re-register on its own — the fresh RM answers its next
// heartbeat with unknown_node — and then resume lease execution so work
// submitted to the new RM completes.
func TestAgentRecoversFromRMRestart(t *testing.T) {
	const agentSlot = 20 * time.Millisecond
	newServer := func() *Server { return newCluster(t, Config{SlotDur: agentSlot}, nil).rm }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()

	rm1 := newServer()
	stop1 := serveRM(t, rm1, ln)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgent(ctx, NewClient("http://"+addr, nil), AgentConfig{
			NodeID:   "n1",
			Capacity: rmproto.Resources{VCores: 8, MemoryMB: 16 * 1024},
			Backoff:  Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
			Logf:     testLogf(t),
		})
	}()

	pollUntil(t, "agent to register with RM1", func() bool { return rm1.Status().Nodes == 1 })

	// RM1 dies with the agent mid-flight.
	stop1()

	// A fresh RM — no node state, the restart case — on the same address.
	// The port may need a moment to free up.
	var ln2 net.Listener
	pollUntil(t, "address to be reusable", func() bool {
		var lerr error
		ln2, lerr = net.Listen("tcp", addr)
		return lerr == nil
	})
	rm2 := newServer()
	stop2 := serveRM(t, rm2, ln2)
	defer stop2()

	pollUntil(t, "agent to re-register with RM2", func() bool { return rm2.Status().Nodes == 1 })

	// Prove the agent resumed real work, not just registration: submit a
	// job to RM2 and tick; the agent's heartbeats must confirm its leases.
	if _, err := rm2.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "post-restart", Tasks: 2, TaskDurSec: 1, DemandVCores: 1, DemandMemMB: 256,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}
	tickDone := make(chan struct{})
	defer close(tickDone)
	go func() {
		ticker := time.NewTicker(agentSlot)
		defer ticker.Stop()
		for {
			select {
			case <-tickDone:
				return
			case now := <-ticker.C:
				_ = rm2.Tick(now)
			}
		}
	}()
	pollUntil(t, "job submitted after restart to complete", func() bool { return allCompleted(rm2.Status()) })

	cancel()
	if err := <-agentErr; !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("agent exit = %v, want context cancellation", err)
	}
}

// refusingRT fails every request without touching the network, counting
// attempts — a deterministic stand-in for "every RM unreachable".
type refusingRT struct{ attempts atomic.Int64 }

func (rt *refusingRT) RoundTrip(*http.Request) (*http.Response, error) {
	rt.attempts.Add(1)
	return nil, errors.New("dial tcp: connection refused")
}

// TestAgentAllRMsUnreachable is the regression test for the spin-hot
// bug: with every configured RM down, the agent used to nest the
// client's 4-attempt retry inside an unbounded registration loop and
// log every attempt. Now each round is a single attempt, the doubling
// backoff holds the rotation rate at one probe per cap once it gets
// there, and the log gets one line per target plus one ring-down
// summary — not a line per attempt.
func TestAgentAllRMsUnreachable(t *testing.T) {
	rt := &refusingRT{}
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	const window = 500 * time.Millisecond
	maxDelay := 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	err := RunAgent(ctx, NewClient("http://rm-a.invalid", &http.Client{Transport: rt}), AgentConfig{
		NodeID:   "n1",
		Capacity: rmproto.Resources{VCores: 4, MemoryMB: 8 * 1024},
		RMs:      []string{"http://rm-a.invalid", "http://rm-b.invalid"},
		Backoff:  Backoff{Base: 2 * time.Millisecond, Max: maxDelay},
		Logf:     logf,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunAgent = %v, want deadline exceeded (still trying at cutoff)", err)
	}

	// Rotation rate: five fast retries double 2ms up to the 50ms cap,
	// then one probe per at least 4/5 of the cap: 500ms / 40ms = 12.5
	// paced probes, so with the first attempt and slack the ceiling is
	// 20. The old nested-retry loop made 4x the attempts with no floor on
	// the delay.
	attempts := rt.attempts.Load()
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (the agent must keep probing)", attempts)
	}
	if ceiling := int64(6 + window/(maxDelay*4/5) + 2); attempts > ceiling {
		t.Errorf("attempts = %d, want <= %d: rotation rate not capped by the backoff", attempts, ceiling)
	}

	// Logging: one line per distinct target plus one ring-down summary.
	mu.Lock()
	defer mu.Unlock()
	if len(lines) > 3 {
		t.Errorf("agent logged %d lines during the outage, want <= 3 (once per transition):\n%s",
			len(lines), strings.Join(lines, "\n"))
	}
	sawSummary := false
	for _, l := range lines {
		if strings.Contains(l, "unreachable") {
			sawSummary = true
		}
	}
	if !sawSummary {
		t.Errorf("no ring-down summary line logged; lines:\n%s", strings.Join(lines, "\n"))
	}
}

// TestAgentKeepsLeasesAcrossTransportFailover proves the agent does not
// abandon in-flight leases when its RM merely stops answering: the work
// keeps executing locally and the completions are re-reported to the RM
// it fails over to, which safely ignores them as stale confirms (it
// never issued those leases). Dropping them instead would waste the
// completed work and force a lease-expiry requeue.
func TestAgentKeepsLeasesAcrossTransportFailover(t *testing.T) {
	// A long slot gives the test a wide window between the agent picking
	// a lease up and confirming it, so stopping RM A inside that window
	// is not a race.
	const agentSlot = 200 * time.Millisecond
	newServer := func() *Server { return newCluster(t, Config{SlotDur: agentSlot}, nil).rm }
	rmA, rmB := newServer(), newServer()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	stopA := serveRM(t, rmA, lnA)
	defer stopA()
	stopB := serveRM(t, rmB, lnB)
	defer stopB()
	urlA := fmt.Sprintf("http://%s", lnA.Addr())
	urlB := fmt.Sprintf("http://%s", lnB.Addr())

	var mu sync.Mutex
	executing := false
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		mu.Lock()
		if strings.Contains(line, "executing") {
			executing = true
		}
		mu.Unlock()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgent(ctx, NewClient(urlA, nil), AgentConfig{
			NodeID:   "n1",
			Capacity: rmproto.Resources{VCores: 8, MemoryMB: 16 * 1024},
			RMs:      []string{urlA, urlB},
			Backoff:  Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
			Logf:     logf,
		})
	}()

	pollUntil(t, "agent to register with RM A", func() bool { return rmA.Status().Nodes == 1 })
	if _, err := rmA.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "held", Tasks: 1, TaskDurSec: 1, DemandVCores: 1, DemandMemMB: 256,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}
	if err := rmA.Tick(time.Now()); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	pollUntil(t, "agent to pick the lease up", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return executing
	})

	// RM A vanishes while the agent holds the unconfirmed lease.
	stopA()

	// The agent fails over to RM B, re-registers, and re-reports the
	// completion of a lease B never issued — observed as a stale confirm.
	pollUntil(t, "agent to fail over to RM B", func() bool { return rmB.Status().Nodes == 1 })
	pollUntil(t, "retained lease to be re-reported to RM B", func() bool {
		return rmB.Status().Faults.StaleConfirms >= 1
	})

	cancel()
	<-agentErr
}

// TestAgentSurvivesEvictionByRM covers the in-process variant: the RM
// stays up but evicts the node for silence; the agent's next heartbeat
// gets unknown_node over HTTP and it re-registers.
func TestAgentSurvivesEvictionByRM(t *testing.T) {
	const agentSlot = 20 * time.Millisecond
	rm := newCluster(t, Config{SlotDur: agentSlot}, nil).rm
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	stop := serveRM(t, rm, ln)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgent(ctx, NewClient(fmt.Sprintf("http://%s", ln.Addr()), nil), AgentConfig{
			NodeID:   "n1",
			Capacity: rmproto.Resources{VCores: 4, MemoryMB: 8 * 1024},
			Backoff:  Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
			Logf:     testLogf(t),
		})
	}()

	deadline := time.Now().Add(15 * time.Second)
	for rm.Status().Nodes != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	// Simulate the RM's view of a network partition: forget the node
	// directly, as a tick does after NodeExpiry silence.
	rm.mu.Lock()
	rm.forgetNodesLocked(map[string]bool{"n1": true})
	rm.mu.Unlock()

	for time.Now().Before(deadline) {
		if st := rm.Status(); st.Nodes == 1 {
			cancel()
			<-agentErr
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("agent never re-registered after eviction")
}

// TestAgentLeavesWedgedRM: an RM that takes the connection and never
// answers — a stopped process, a handler stuck behind its lock — costs
// the agent one heartbeat interval per attempt, not its life. After
// failoverAfter attempts, and no fewer, it fails over to the standby.
func TestAgentLeavesWedgedRM(t *testing.T) {
	const agentSlot = 50 * time.Millisecond
	newServer := func() *Server { return newCluster(t, Config{SlotDur: agentSlot}, nil).rm }
	rmA, rmB := newServer(), newServer()
	var wedged atomic.Bool
	var wedgedBeats atomic.Int64
	release := make(chan struct{})
	hA := rmA.Handler()
	srvA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !wedged.Load() {
			hA.ServeHTTP(w, r)
			return
		}
		if r.URL.Path == rmproto.PathHeartbeat {
			wedgedBeats.Add(1)
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srvA.Close()
	defer close(release) // before srvA.Close, which waits for the handlers
	srvB := httptest.NewServer(rmB.Handler())
	defer srvB.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgent(ctx, NewClient(srvA.URL, nil), AgentConfig{
			NodeID:   "n1",
			Capacity: rmproto.Resources{VCores: 4, MemoryMB: 8 * 1024},
			RMs:      []string{srvA.URL, srvB.URL},
			Backoff:  Backoff{Base: 5 * time.Millisecond, Max: agentSlot},
			Logf:     testLogf(t),
		})
	}()
	waitUntil := func(what string, within time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(within)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out after %v waiting for %s", within, what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitUntil("agent to register with RM A", 15*time.Second, func() bool { return rmA.Status().Nodes == 1 })

	wedged.Store(true)
	waitUntil("agent to register with the standby", 100*agentSlot, func() bool { return rmB.Status().Nodes == 1 })
	if got := wedgedBeats.Load(); got != failoverAfter {
		t.Errorf("agent failed over after %d heartbeat attempts at the wedged RM, want %d", got, failoverAfter)
	}
	cancel()
	<-agentErr
}

// flakyRT refuses the first refuse requests without touching the
// network, then hands the rest to the default transport, counting all.
type flakyRT struct {
	refuse   int64
	attempts atomic.Int64
}

func (rt *flakyRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.attempts.Add(1) <= rt.refuse {
		return nil, errors.New("dial tcp: connection refused")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRetryStopsOnSuccess: each turn of the agent's registration loop is
// one request — the client under it retries nothing — and the loop stops
// at the first success. The RM's hour-long slot keeps the first heartbeat
// out of the count.
func TestRetryStopsOnSuccess(t *testing.T) {
	rm := newCluster(t, Config{SlotDur: time.Hour}, nil).rm
	srv := httptest.NewServer(rm.Handler())
	defer srv.Close()
	rt := &flakyRT{refuse: 2}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgent(ctx, NewClient(srv.URL, &http.Client{Transport: rt}), AgentConfig{
			NodeID:   "n1",
			Capacity: rmproto.Resources{VCores: 4, MemoryMB: 8 * 1024},
			Backoff:  Backoff{Base: time.Millisecond, Max: time.Millisecond},
		})
	}()
	deadline := time.Now().Add(15 * time.Second)
	for rm.Status().Nodes != 1 {
		if time.Now().After(deadline) {
			t.Fatal("agent never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := rt.attempts.Load(); got != 3 {
		t.Errorf("registration took %d requests, want 3 (two refused, one accepted)", got)
	}
	cancel()
	<-agentErr
}

// TestRetryStopsOnPermanentError: a 4xx answer to a registration is not
// retried; RunAgent returns it after the one request.
func TestRetryStopsOnPermanentError(t *testing.T) {
	rm := newCluster(t, Config{}, nil).rm
	srv := httptest.NewServer(rm.Handler())
	defer srv.Close()
	rt := &flakyRT{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := RunAgent(ctx, NewClient(srv.URL, &http.Client{Transport: rt}), AgentConfig{
		NodeID:  "n1", // zero capacity: the RM refuses the node
		Backoff: Backoff{Base: time.Millisecond, Max: time.Millisecond},
	})
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("RunAgent = %v, want the RM's 400", err)
	}
	if got := rt.attempts.Load(); got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}
}

// TestRetryHonorsContextCancellation: cancelling the agent ends its
// backoff sleep at once. The hour-long delay after the first refused
// attempt means a sleep the cancellation did not interrupt would time the
// test out, not flake it.
func TestRetryHonorsContextCancellation(t *testing.T) {
	rt := &refusingRT{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(20*time.Millisecond, cancel)
	err := RunAgent(ctx, NewClient("http://rm.invalid", &http.Client{Transport: rt}), AgentConfig{
		NodeID:   "n1",
		Capacity: rmproto.Resources{VCores: 4, MemoryMB: 8 * 1024},
		Backoff:  Backoff{Base: time.Hour, Max: time.Hour},
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunAgent = %v, want context.Canceled", err)
	}
	if got := rt.attempts.Load(); got != 1 {
		t.Errorf("requests = %d, want 1 (cancel must interrupt the backoff sleep)", got)
	}
}

// TestRetryBacksOffAfterCommitFailed: a heartbeat the RM refuses with a
// 503 commit_failed is tried again after the backoff delay, capped at one
// interval — not at once — and the retry re-reports the same completions,
// since the refused confirm did not take effect.
func TestRetryBacksOffAfterCommitFailed(t *testing.T) {
	const interval = 200 * time.Millisecond
	backoff := Backoff{Base: 50 * time.Millisecond, Max: 50 * time.Millisecond}
	// backoff.Delay(0) is jittered down by at most backoffJitter.
	minWait := time.Duration(float64(min(backoff.Base, interval)) * (1 - backoffJitter))
	rm := newCluster(t, Config{SlotDur: interval}, nil).rm
	h := rm.Handler()
	type beat struct {
		at        time.Time
		completed []string
	}
	var mu sync.Mutex
	var beats []beat
	refused := -1 // index in beats of the heartbeat refused
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == rmproto.PathHeartbeat {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("read heartbeat: %v", err)
			}
			req, err := rmproto.DecodeHeartbeatRequest(body)
			if err != nil {
				t.Errorf("decode heartbeat: %v", err)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			mu.Lock()
			beats = append(beats, beat{at: time.Now(), completed: req.Completed})
			refuse := refused < 0 && len(req.Completed) > 0
			if refuse {
				refused = len(beats) - 1
			}
			mu.Unlock()
			if refuse {
				writeError(w, http.StatusServiceUnavailable, ErrCommitFailed)
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgent(ctx, NewClient(srv.URL, nil), AgentConfig{
			NodeID:   "n1",
			Capacity: rmproto.Resources{VCores: 4, MemoryMB: 8 * 1024},
			Backoff:  backoff,
		})
	}()
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "j", Tasks: 1, TaskDurSec: 1, DemandVCores: 1, DemandMemMB: 256,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}
	tickDone := make(chan struct{})
	defer close(tickDone)
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-tickDone:
				return
			case now := <-ticker.C:
				_ = rm.Tick(now)
			}
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		done := refused >= 0 && len(beats) > refused+1
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("agent never retried a refused confirming heartbeat")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-agentErr
	mu.Lock()
	defer mu.Unlock()
	first, retry := beats[refused], beats[refused+1]
	if gap := retry.at.Sub(first.at); gap < minWait {
		t.Errorf("heartbeat retried after %v, want >= min(backoff.Delay(0), interval) >= %v", gap, minWait)
	}
	if !slices.Equal(retry.completed, first.completed) {
		t.Errorf("retry reported completions %v, want the refused heartbeat's %v", retry.completed, first.completed)
	}
}

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second,
	}
	for attempt, w := range want {
		for i := 0; i < 100; i++ {
			if got := b.Delay(attempt); got < w*4/5 || got > w {
				t.Fatalf("Delay(%d) = %v, want within [%v, %v]", attempt, got, w*4/5, w)
			}
		}
	}
}

// TestBackoffJitterBounded: a Backoff that sets only Base and Max, or
// nothing, jitters — agents that lost the RM at the same instant must not
// retry in lockstep — and every delay stays within [0.8, 1.0] of the
// un-jittered one.
func TestBackoffJitterBounded(t *testing.T) {
	for _, b := range []Backoff{{}, {Base: 100 * time.Millisecond, Max: 5 * time.Second}} {
		for attempt, w := range map[int]time.Duration{0: 100 * time.Millisecond, 3: 800 * time.Millisecond, 9: 5 * time.Second} {
			seen := make(map[time.Duration]bool)
			for i := 0; i < 1000; i++ {
				d := b.Delay(attempt)
				if d < w*4/5 || d > w {
					t.Fatalf("%+v.Delay(%d) = %v, want within [%v, %v]", b, attempt, d, w*4/5, w)
				}
				seen[d] = true
			}
			if len(seen) < 2 {
				t.Errorf("%+v.Delay(%d) gave %d distinct delays in 1000 draws, want them jittered", b, attempt, len(seen))
			}
		}
	}
}
