package rmserver

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"

	"flowtime/internal/rmproto"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// launchOneSlot builds a durable RM whose store sits on a FaultFS, so
// tests can fail fsyncs out from under live mutations, and plays it one
// slot, to where node n1 holds at least two unconfirmed leases.
func launchOneSlot(t *testing.T) (*cluster, *store.FaultFS) {
	t.Helper()
	ffs := store.NewFaultFS()
	c := newCluster(t, Config{}, &durable{fs: ffs, abandon: true})
	c.register("n1", 8, 16*1024)
	submitBoth(t, c.rm)
	c.step()
	if len(c.held["n1"]) < 2 {
		t.Fatalf("%d leases launched, want at least 2 to confirm in two heartbeats", len(c.held["n1"]))
	}
	return c, ffs
}

// TestCommitFailureSurfacesAtTick: a heartbeat no longer waits for its
// confirm record's fsync, so a failing disk is met by the next commit —
// the tick's. That tick must fail with ErrCommitFailed and hand out
// nothing: its commit is what would have made both its own grants and
// the slot's confirms durable. From then on the store's error is sticky
// and confirming heartbeats fail where they journal.
func TestCommitFailureSurfacesAtTick(t *testing.T) {
	c, ffs := launchOneSlot(t)
	rm, pending := c.rm, c.held["n1"]

	ffs.FailFsync(1)
	// A confirming heartbeat under the armed fault succeeds: it does not fsync.
	if launched := c.beat("n1", pending[:1]); len(launched) != 0 {
		t.Fatalf("heartbeat launched %d quanta before any new tick", len(launched))
	}

	err := rm.Tick(c.now)
	if !errors.Is(err, ErrCommitFailed) {
		t.Fatalf("tick under fsync fault = %v, want ErrCommitFailed", err)
	}
	if !errors.Is(err, store.ErrInjectedFsync) {
		t.Errorf("commit failure lost the underlying store error: %v", err)
	}
	// The failed tick granted leases in memory; none may reach the node.
	if launched := c.beat("n1", nil); len(launched) != 0 {
		t.Errorf("failed tick handed out %d quanta; its grants are not durable", len(launched))
	}

	_, err = rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: pending[1:]}, c.now)
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

// TestCommitFailureAfterASkippedTickFsync: a tick whose slot a submission
// already committed has nothing to sync, so an fsync fault armed after
// that commit passes it by — the tick succeeds and its quanta reach the
// node. The fault meets the next commit instead: the next submission is
// commit_failed with the store's error in the chain, GET /v1/status still
// answers 200 with commit_error set, and from then on the store's error is
// sticky, so the next confirming heartbeat fails at the append.
func TestCommitFailureAfterASkippedTickFsync(t *testing.T) {
	c, ffs := launchOneSlot(t)
	rm, pending := c.rm, c.held["n1"]
	srv := httptest.NewServer(rm.Handler())
	defer srv.Close()
	submitAdHoc(t, rm, "late", 2, 20)

	ffs.FailFsync(1)
	c.tick() // nothing before it to sync: it succeeds
	if len(c.beat("n1", nil)) == 0 {
		t.Fatal("the tick's quanta did not reach the node")
	}

	_, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "later", Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 256,
	}})
	if !errors.Is(err, ErrCommitFailed) || !errors.Is(err, store.ErrInjectedFsync) {
		t.Fatalf("submission under the armed fault = %v, want ErrCommitFailed wrapping the injected fsync failure", err)
	}
	st, err := NewClient(srv.URL, nil).Status(context.Background())
	if err != nil {
		t.Fatalf("GET /v1/status on a failed store = %v, want 200", err)
	}
	if st.Durability == nil || !strings.Contains(st.Durability.CommitError, store.ErrInjectedFsync.Error()) {
		t.Errorf("status durability block = %+v, want the injected fsync failure in commit_error", st.Durability)
	}
	_, err = rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: pending}, c.now)
	if !errors.Is(err, ErrCommitFailed) || !strings.Contains(err.Error(), "wal append") {
		t.Errorf("confirming heartbeat on the failed store = %v, want ErrCommitFailed at the append", err)
	}
}

// TestCommitFailureOverHTTP pins the wire contract: the failed tick is a
// 503 with code commit_failed, which the client maps back to
// ErrCommitFailed and treats as retryable; /v1/status keeps answering
// 200 and carries the failure in its durability block.
func TestCommitFailureOverHTTP(t *testing.T) {
	c, ffs := launchOneSlot(t)
	srv := httptest.NewServer(c.rm.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, nil)
	ctx := context.Background()
	pending := c.held["n1"]

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
	c, ffs := launchOneSlot(t)
	srv := httptest.NewServer(c.rm.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, nil)

	ffs.FailENOSPC(1)
	err := client.Tick(context.Background())
	wantCommitFailed(t, "tick on a full disk", err)
	if err := c.rm.Tick(c.now); !errors.Is(err, syscall.ENOSPC) {
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
