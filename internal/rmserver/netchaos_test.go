package rmserver

// Network chaos suites: the control plane under partitions, flaps, and
// asymmetric reachability. A node manager and a standby reach the RM only
// over HTTP, so each scenario injects its faults through a faultyLink in
// its own client: a request that never arrives, or a reply lost after the
// server handled the request. Every fault is decided by a flag the test
// sets or by counting requests, never by a clock. Each scenario ends at
// the recovery-equivalence oracle — the surviving RM's in-memory state
// must equal a cold recovery of its own store — plus the exactly-once
// check that every job's delivered volume equals its total.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/trace"
)

// faultyLink is an http.RoundTripper over http.DefaultTransport that
// cuts a client's link to its RMs as the test decides: a request that
// drop reports true for never reaches the server, and when loseReply
// reports true the server has handled the request and its reply is
// thrown away, the case that makes a client retry what already took
// effect. Either may be nil; dropped and lost count what each did.
type faultyLink struct {
	drop          func(*http.Request) bool
	loseReply     func() bool
	dropped, lost atomic.Int64
}

func (l *faultyLink) RoundTrip(req *http.Request) (*http.Response, error) {
	if l.drop != nil && l.drop(req) {
		if req.Body != nil {
			req.Body.Close()
		}
		l.dropped.Add(1)
		return nil, errors.New("faultyLink: request dropped")
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || l.loseReply == nil || !l.loseReply() {
		return resp, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	l.lost.Add(1)
	return nil, errors.New("faultyLink: reply lost")
}

// assertExactlyOnce checks the completed workload delivered every job's
// volume exactly once and the RM passes the recovery-equivalence oracle.
func assertExactlyOnce(t *testing.T, rm *Server, st rmproto.StatusResponse) {
	t.Helper()
	if len(st.Jobs) == 0 {
		t.Fatal("no jobs in final status")
	}
	for _, j := range st.Jobs {
		if j.State != "completed" {
			t.Errorf("job %s state %s, want completed", j.ID, j.State)
		}
		if j.Delivered != j.Total {
			t.Errorf("job %s delivered %+v, want exactly %+v (no lost, no double-counted work)",
				j.ID, j.Delivered, j.Total)
		}
	}
	if err := rm.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("recovery equivalence: %v", err)
	}
}

// TestNetChaosReplicationPartitionMidShipment partitions the
// replication link in the middle of a shipment stream: records ship,
// the link dies while the primary keeps journaling, the link heals and
// the follower catches up, and the post-failover workload completes
// exactly once.
func TestNetChaosReplicationPartitionMidShipment(t *testing.T) {
	p := newCluster(t, Config{}, &durable{})
	primary := p.rm
	psrv := httptest.NewServer(primary.Handler())
	defer psrv.Close()
	f := newCluster(t, Config{Follower: true, LeaderURL: psrv.URL}, &durable{})
	follower := f.rm

	// While cut is set the link is down both ways: no ship request
	// arrives, and the reply of one already in flight is lost.
	var cut atomic.Bool
	link := &faultyLink{
		drop:      func(*http.Request) bool { return cut.Load() },
		loseReply: cut.Load,
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	replDone := make(chan error, 1)
	go func() {
		replDone <- follower.RunReplicator(ctx, ReplicatorConfig{
			Primary:    psrv.URL,
			Interval:   2 * time.Millisecond,
			HTTPClient: &http.Client{Transport: link},
		})
	}()
	converged := func() bool { return follower.store.Watermark() == primary.store.Watermark() }

	// Phase 1 (link up): ship the first part of the stream.
	p.register("n1", 8, 16*1024)
	submitBoth(t, primary)
	p.run(2)
	pollUntil(t, "the follower to converge before the partition", converged)

	// Phase 2 (partition): the primary keeps working; nothing ships. The
	// follower has all the primary had when the link is cut, so its
	// watermark must not move until the link heals — checked while the
	// replicator retries ten times over the cut link after the primary's
	// new records exist.
	cut.Store(true)
	behindWM := follower.store.Watermark()
	p.run(2)
	if primary.store.Watermark() == behindWM {
		t.Fatal("primary journaled nothing during the partition — scenario needs mid-stream state")
	}
	retries := link.dropped.Load() + 10
	pollUntil(t, "the replicator to retry over the cut link", func() bool {
		if follower.store.Watermark() != behindWM {
			t.Fatal("follower watermark advanced across an active partition")
		}
		return link.dropped.Load() >= retries
	})

	// Phase 3 (heal): the backlog drains and the follower converges.
	cut.Store(false)
	pollUntil(t, "the follower to converge after healing", converged)

	// Primary dies; the standby takes over and the workload finishes.
	if _, err := follower.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	select {
	case <-replDone:
	case <-time.After(10 * time.Second):
		t.Fatal("replicator did not exit after promotion")
	}
	f.register("n1", 8, 16*1024)
	st := f.runToCompletion(200)
	assertExactlyOnce(t, follower, st)
}

// TestNetChaosFlappingLinkDuringFailover runs the replication pull loop
// over a flapping link — including the duplicate-inducing case where a
// batch is delivered and only its acknowledgement is lost, forcing a
// re-ship the follower must deduplicate. The workload still completes
// exactly once after failover.
func TestNetChaosFlappingLinkDuringFailover(t *testing.T) {
	p := newCluster(t, Config{}, &durable{})
	primary := p.rm
	psrv := httptest.NewServer(primary.Handler())
	defer psrv.Close()
	f := newCluster(t, Config{Follower: true, LeaderURL: psrv.URL}, &durable{})
	follower := f.rm

	// The link flaps by count from the first ship request: of every three
	// requests the first is dropped, and of every two delivered the first
	// loses its reply, so the primary ships batches the follower never
	// sees and must ship again.
	var sent, delivered atomic.Int64
	link := &faultyLink{
		drop:      func(*http.Request) bool { return sent.Add(1)%3 == 1 },
		loseReply: func() bool { return delivered.Add(1)%2 == 1 },
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	replDone := make(chan error, 1)
	go func() {
		replDone <- follower.RunReplicator(ctx, ReplicatorConfig{
			Primary:    psrv.URL,
			Interval:   2 * time.Millisecond,
			HTTPClient: &http.Client{Transport: link},
		})
	}()

	// The primary journals in steps, and each step's records cross the
	// link while it carries three more ship requests: one fault cycle.
	shipThrough := func() {
		n := sent.Load() + 3
		pollUntil(t, "three ship requests over the flapping link", func() bool { return sent.Load() >= n })
	}
	p.register("n1", 8, 16*1024)
	shipThrough()
	submitBoth(t, primary)
	shipThrough()
	for range 4 {
		p.run(1)
		shipThrough()
	}

	pollUntil(t, "the follower to converge through the flapping link", func() bool {
		return follower.store.Watermark() == primary.store.Watermark()
	})
	if dropped, lost := link.dropped.Load(), link.lost.Load(); dropped == 0 || lost == 0 {
		t.Fatalf("the follower converged before the link flapped: %d requests dropped, %d replies lost", dropped, lost)
	}

	if _, err := follower.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	select {
	case <-replDone:
	case <-time.After(10 * time.Second):
		t.Fatal("replicator did not exit after promotion")
	}
	f.register("n1", 8, 16*1024)
	st := f.runToCompletion(200)
	assertExactlyOnce(t, follower, st)
}

// TestNetChaosAsymmetricSplitBrain is the dueling-primaries scenario:
// the agent can reach the standby but not the primary (one-way
// partition), the standby is promoted while the old primary still
// believes it leads, and epoch fencing resolves the duel — the agent
// lands on exactly one leader and the workload completes exactly once.
func TestNetChaosAsymmetricSplitBrain(t *testing.T) {
	const fastSlot = 30 * time.Millisecond
	primary := newCluster(t, Config{SlotDur: fastSlot}, &durable{}).rm
	psrv := httptest.NewServer(primary.Handler())
	defer psrv.Close()
	follower := newCluster(t, Config{SlotDur: fastSlot, Follower: true, LeaderURL: psrv.URL}, &durable{}).rm
	fsrv := httptest.NewServer(follower.Handler())
	defer fsrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Replication link is clean; only the agent's path to the primary is
	// cut — and only in the agent->primary direction.
	replDone := make(chan error, 1)
	go func() {
		replDone <- follower.RunReplicator(ctx, ReplicatorConfig{
			Primary: psrv.URL, Self: fsrv.URL, Interval: 2 * time.Millisecond,
		})
	}()

	primaryHost := psrv.Listener.Addr().String()
	link := &faultyLink{drop: func(req *http.Request) bool { return req.URL.Host == primaryHost }}
	agentHC := &http.Client{Transport: link}
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- RunAgent(ctx, NewClient(psrv.URL, agentHC), AgentConfig{
			NodeID:   "n1",
			Capacity: rmproto.Resources{VCores: 8, MemoryMB: 16 * 1024},
			RMs:      []string{psrv.URL, fsrv.URL},
			Backoff:  Backoff{Base: 2 * time.Millisecond, Max: 30 * time.Millisecond},
			Logf:     testLogf(t),
		})
	}()

	// The agent churns: primary unreachable, standby answers not_leader.
	// It must not land anywhere while it tries the primary five times.
	pollUntil(t, "the agent to try the unreachable primary", func() bool { return link.dropped.Load() >= 5 })
	if n := primary.Status().Nodes; n != 0 {
		t.Fatalf("agent registered with the unreachable primary (%d nodes)", n)
	}
	if n := follower.Status().Nodes; n != 0 {
		t.Fatalf("agent registered with a non-promoted follower (%d nodes)", n)
	}

	// Operator promotes the standby. For a window, BOTH servers claim
	// the primary role — the duel fencing must resolve.
	if _, err := follower.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if follower.Role() != RolePrimary {
		t.Fatal("promoted follower does not claim primary")
	}
	select {
	case <-replDone: // replicator's parting shot fences the old primary
	case <-time.After(10 * time.Second):
		t.Fatal("replicator did not exit after promotion")
	}
	if err := primary.Tick(time.Now()); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("old primary Tick after fencing = %v, want ErrNotLeader (duel must resolve)", err)
	}

	// The agent finds the new leader on its own.
	pollUntil(t, "agent to register with the new leader", func() bool { return follower.Status().Nodes == 1 })

	// Work submitted to the new leader completes via the real agent.
	if _, err := follower.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "post-split", Tasks: 2, TaskDurSec: 1, DemandVCores: 1, DemandMemMB: 256,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}
	tickDone := make(chan struct{})
	defer close(tickDone)
	go func() {
		ticker := time.NewTicker(fastSlot)
		defer ticker.Stop()
		for {
			select {
			case <-tickDone:
				return
			case now := <-ticker.C:
				_ = follower.Tick(now)
			}
		}
	}()
	pollUntil(t, "workload to complete on the new leader", func() bool { return allCompleted(follower.Status()) })

	cancel()
	<-agentDone
	assertExactlyOnce(t, follower, follower.Status())
}
