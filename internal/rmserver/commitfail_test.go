package rmserver

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// newFaultyRM builds a durable RM whose store sits on a FaultFS, so
// tests can fail fsyncs out from under live mutations.
func newFaultyRM(t *testing.T, dir string) (*Server, *store.FaultFS) {
	t.Helper()
	ffs := store.NewFaultFS()
	st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncAlways, FS: ffs})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	rm, err := New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO(), Store: st})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rm, ffs
}

// launchOneSlot runs a faulty RM up to the point where node n1 holds at
// least two unconfirmed leases, and returns their quantum IDs.
func launchOneSlot(t *testing.T, rm *Server) []string {
	t.Helper()
	register(t, rm, "n1", 8, 16*1024)
	submitBoth(t, rm)
	pending := runSlots(t, rm, "n1", 1, nil)
	if len(pending) < 2 {
		t.Fatalf("%d leases launched, want at least 2 to confirm in two heartbeats", len(pending))
	}
	return pending
}

// TestCommitFailureSurfacesAtTick: a heartbeat no longer waits for its
// confirm record's fsync, so a failing disk is met by the next commit —
// the tick's. That tick must fail with ErrCommitFailed and hand out
// nothing: its commit is what would have made both its own grants and
// the slot's confirms durable. From then on the store's error is sticky
// and confirming heartbeats fail where they journal.
func TestCommitFailureSurfacesAtTick(t *testing.T) {
	rm, ffs := newFaultyRM(t, t.TempDir())
	pending := launchOneSlot(t, rm)

	ffs.FailFsync(1)
	resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: pending[:1]}, time.Now())
	if err != nil {
		t.Fatalf("confirming heartbeat under an armed fsync fault = %v, want success (it does not fsync)", err)
	}
	if len(resp.Launch) != 0 {
		t.Fatalf("heartbeat launched %d quanta before any new tick", len(resp.Launch))
	}

	err = rm.Tick(time.Now())
	if !errors.Is(err, ErrCommitFailed) {
		t.Fatalf("tick under fsync fault = %v, want ErrCommitFailed", err)
	}
	if !errors.Is(err, store.ErrInjectedFsync) {
		t.Errorf("commit failure lost the underlying store error: %v", err)
	}
	// The failed tick granted leases in memory; none may reach the node.
	resp, err = rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1"}, time.Now())
	if err != nil {
		t.Fatalf("empty heartbeat after the failed tick: %v", err)
	}
	if len(resp.Launch) != 0 {
		t.Errorf("failed tick handed out %d quanta; its grants are not durable", len(resp.Launch))
	}

	_, err = rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: pending[1:]}, time.Now())
	if !errors.Is(err, ErrCommitFailed) || !strings.Contains(err.Error(), "wal append") {
		t.Errorf("confirming heartbeat on the failed store = %v, want ErrCommitFailed at the append", err)
	}
	_, err = rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "late", Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 256,
	}})
	if !errors.Is(err, ErrCommitFailed) {
		t.Errorf("submission on the failed store = %v, want ErrCommitFailed (never an unjournaled ack)", err)
	}
}

// TestCommitFailureOverHTTP pins the wire contract: the failed tick is a
// 503 with code commit_failed, which the client maps back to
// ErrCommitFailed and treats as retryable; /v1/status keeps answering
// 200 and carries the failure in its durability block.
func TestCommitFailureOverHTTP(t *testing.T) {
	rm, ffs := newFaultyRM(t, t.TempDir())
	srv := httptest.NewServer(rm.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, nil)
	ctx := context.Background()
	pending := launchOneSlot(t, rm)

	ffs.FailFsync(1)
	if _, err := client.Heartbeat(ctx, rmproto.HeartbeatRequest{NodeID: "n1", Completed: pending}); err != nil {
		t.Fatalf("confirming heartbeat over HTTP under an armed fsync fault = %v, want success", err)
	}
	wantCommitFailed(t, "tick under fsync fault", client.Tick(ctx))

	st, err := client.Status(ctx)
	if err != nil {
		t.Fatalf("GET /v1/status on a failed store = %v, want 200", err)
	}
	if st.Durability == nil || !strings.Contains(st.Durability.CommitError, store.ErrInjectedFsync.Error()) {
		t.Errorf("status durability block = %+v, want the injected fsync failure in commit_error", st.Durability)
	}
}

// TestTickAppendFailureOverHTTP: a tick whose WAL append fails (disk
// full) is the same retryable commit_failed as one whose fsync fails,
// not a bare 500.
func TestTickAppendFailureOverHTTP(t *testing.T) {
	rm, ffs := newFaultyRM(t, t.TempDir())
	srv := httptest.NewServer(rm.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, nil)
	launchOneSlot(t, rm)

	ffs.FailENOSPC(1)
	err := client.Tick(context.Background())
	wantCommitFailed(t, "tick on a full disk", err)
	if err := rm.Tick(time.Now()); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("in-process tick on the failed store = %v, want the ENOSPC kept in the chain", err)
	}
}

// wantCommitFailed checks an error that crossed the HTTP boundary.
func wantCommitFailed(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrCommitFailed) {
		t.Fatalf("%s = %v, want ErrCommitFailed", what, err)
	}
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("%s: error %v did not carry a StatusError", what, err)
	}
	if se.StatusCode != 503 || se.Code != rmproto.CodeCommitFailed {
		t.Errorf("%s: wire error = %d/%s, want 503/%s", what, se.StatusCode, se.Code, rmproto.CodeCommitFailed)
	}
	if !Retryable(err) {
		t.Errorf("%s: commit_failed must be retryable: the disk fault may clear", what)
	}
}
