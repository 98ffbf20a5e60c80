package rmserver

// Network chaos suites: the control plane under partitions, flaps, and
// asymmetric reachability, with every fault injected deterministically
// by internal/netchaos (fixed seeds, scripted windows). Each scenario
// ends at the recovery-equivalence oracle — the surviving RM's in-memory
// state must equal a cold recovery of its own store — plus the
// exactly-once check that every job's delivered volume equals its total.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flowtime/internal/netchaos"
	"flowtime/internal/rmproto"
	"flowtime/internal/trace"
)

// chaosClock is a virtual timeline for the injector (tests pin fault
// windows to it instead of racing the wall clock).
type chaosClock struct{ now atomic.Int64 }

func (c *chaosClock) set(d time.Duration) { c.now.Store(int64(d)) }
func (c *chaosClock) read() time.Duration { return time.Duration(c.now.Load()) }

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

	// The partition window lives on a virtual clock the test advances.
	inj := netchaos.New(1001, netchaos.Script{{Fault: netchaos.Partition, From: "repl", To: "rm", Bidir: true, Start: time.Second, End: 2 * time.Second}})
	clk := &chaosClock{}
	inj.SetClock(clk.read)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	replDone := make(chan error, 1)
	go func() {
		replDone <- follower.RunReplicator(ctx, ReplicatorConfig{
			Primary:    psrv.URL,
			Interval:   2 * time.Millisecond,
			HTTPClient: &http.Client{Transport: &netchaos.Transport{Injector: inj, From: "repl", To: "rm"}},
		})
	}()
	waitConverged := func(what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for follower.store.Watermark() != primary.store.Watermark() {
			if time.Now().After(deadline) {
				t.Fatalf("follower never converged %s: %v vs %v", what,
					follower.store.Watermark(), primary.store.Watermark())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Phase 1 (link up): ship the first part of the stream.
	p.register("n1", 8, 16*1024)
	submitBoth(t, primary)
	p.run(2)
	waitConverged("before the partition")

	// Phase 2 (partition): the primary keeps working; nothing ships.
	clk.set(1500 * time.Millisecond)
	behindWM := follower.store.Watermark()
	p.run(2)
	if primary.store.Watermark() == behindWM {
		t.Fatal("primary journaled nothing during the partition — scenario needs mid-stream state")
	}
	time.Sleep(50 * time.Millisecond) // give a broken replicator time to wrongly advance
	if follower.store.Watermark() != behindWM {
		t.Fatal("follower watermark advanced across an active partition")
	}

	// Phase 3 (heal): the backlog drains and the follower converges.
	clk.set(2500 * time.Millisecond)
	waitConverged("after healing")

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

	// Real-clock flap: 30ms up, 30ms down, forever. Ship requests and
	// responses are judged independently, so response-only losses occur.
	inj := netchaos.New(77, netchaos.Script{{Fault: netchaos.Partition, From: "repl", To: "rm", Bidir: true, Period: 60 * time.Millisecond, Duty: 0.5}})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	replDone := make(chan error, 1)
	go func() {
		replDone <- follower.RunReplicator(ctx, ReplicatorConfig{
			Primary:    psrv.URL,
			Interval:   2 * time.Millisecond,
			HTTPClient: &http.Client{Transport: &netchaos.Transport{Injector: inj, From: "repl", To: "rm"}},
		})
	}()

	p.register("n1", 8, 16*1024)
	submitBoth(t, primary)
	p.run(4)

	deadline := time.Now().Add(15 * time.Second)
	for follower.store.Watermark() != primary.store.Watermark() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged through the flapping link: %v vs %v",
				follower.store.Watermark(), primary.store.Watermark())
		}
		time.Sleep(5 * time.Millisecond)
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

// hostChaosRT routes each request's fault link by target host, so one
// http.Client can reach several RMs over independently-scripted links.
type hostChaosRT struct {
	inj   *netchaos.Injector
	hosts map[string]string // URL host -> link label
}

func (rt *hostChaosRT) RoundTrip(req *http.Request) (*http.Response, error) {
	label, ok := rt.hosts[req.URL.Host]
	if !ok {
		label = req.URL.Host
	}
	return (&netchaos.Transport{Injector: rt.inj, From: "agent", To: label}).RoundTrip(req)
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

	inj := netchaos.New(42, netchaos.Script{{Fault: netchaos.Partition, From: "agent", To: "rmp"}})
	agentHC := &http.Client{Transport: &hostChaosRT{
		inj: inj,
		hosts: map[string]string{
			strings.TrimPrefix(psrv.URL, "http://"): "rmp",
			strings.TrimPrefix(fsrv.URL, "http://"): "rmf",
		},
	}}
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
	// It must not land anywhere yet.
	time.Sleep(150 * time.Millisecond)
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
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitFor("agent to register with the new leader", func() bool { return follower.Status().Nodes == 1 })

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
	waitFor("workload to complete on the new leader", func() bool { return allCompleted(follower.Status()) })

	cancel()
	<-agentDone
	assertExactlyOnce(t, follower, follower.Status())
}

// chaosListen serves rm on a loopback listener wrapped with a fresh
// injector running script, and returns its base URL.
func chaosListen(t *testing.T, rm *Server, seed int64, script netchaos.Script) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(serveRM(t, rm, netchaos.WrapListener(ln, netchaos.New(seed, script), "c", "s")))
	return "http://" + ln.Addr().String()
}

// TestNetChaosCodedErrorsThroughWrappedListener is the plumbing test:
// coded errors are header/body-based, not connection-based, so they
// survive a degraded-but-connected network. Both netchaos seams are
// exercised — the wrapped server listener under latency and throttling,
// and the client's RoundTripper.
func TestNetChaosCodedErrorsThroughWrappedListener(t *testing.T) {
	ctx := context.Background()
	register := func(c *Client) error {
		_, err := c.RegisterNode(ctx, rmproto.RegisterNodeRequest{
			NodeID: "n1", Capacity: rmproto.Resources{VCores: 1, MemoryMB: 1024},
		})
		return err
	}

	// not_leader through a throttled listener: the hint survives.
	follower := newCluster(t, Config{Follower: true, LeaderURL: "http://leader.example:8030"}, &durable{}).rm
	furl := chaosListen(t, follower, 9, netchaos.Script{
		{Fault: netchaos.Throttle, From: "c", To: "s", Bidir: true, BytesPerSec: 65536},
		{Fault: netchaos.Latency, From: "c", To: "s", Latency: 2 * time.Millisecond},
	})
	err := register(NewClient(furl, nil))
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("register via wrapped listener = %v, want ErrNotLeader", err)
	}
	if hint := LeaderHint(err); hint != "http://leader.example:8030" {
		t.Errorf("leader hint %q did not survive the wrapped listener", hint)
	}

	// not_leader again with the RoundTripper seam on the client side too.
	latency := netchaos.Script{{Fault: netchaos.Latency, From: "c", To: "s", Latency: time.Millisecond}}
	chaosHC := &http.Client{Transport: &netchaos.Transport{Injector: netchaos.New(12, latency), From: "c", To: "s"}}
	err = register(NewClient(chaosListen(t, follower, 11, latency), chaosHC))
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("register via transport and wrapped listener = %v, want ErrNotLeader", err)
	}
	if hint := LeaderHint(err); hint != "http://leader.example:8030" {
		t.Errorf("leader hint %q did not survive the transport", hint)
	}
}
