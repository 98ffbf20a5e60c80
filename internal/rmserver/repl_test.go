package rmserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/store"
)

// newReplicaRM builds a follower RM over its own state directory.
func newReplicaRM(t *testing.T, dir, leaderURL string) (*Server, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncAlways})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	rm, err := New(Config{
		SlotDur: slotDur, Scheduler: sched.NewFIFO(), Store: st,
		Follower: true, LeaderURL: leaderURL,
	})
	if err != nil {
		t.Fatalf("New(follower): %v", err)
	}
	return rm, st
}

// pumpRepl replicates primary → follower in-process until the follower's
// watermark matches the primary's.
func pumpRepl(t testing.TB, primary, follower *Server) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		wm := follower.store.Watermark()
		resp, err := primary.ShipLog(rmproto.ShipRequest{
			Epoch: follower.Epoch(),
			From:  rmproto.ReplWatermark{Gen: wm.Gen, Records: wm.Records, Bytes: wm.Bytes},
		})
		if err != nil {
			t.Fatalf("ShipLog: %v", err)
		}
		if _, err := follower.IngestShipment(resp); err != nil {
			t.Fatalf("IngestShipment: %v", err)
		}
		if follower.store.Watermark() == primary.store.Watermark() {
			return
		}
	}
	t.Fatal("replication did not converge in 1000 batches")
}

// TestFailoverPreservesWorkExactlyOnce is the core failover scenario: a
// primary runs a workload partway, replicates to a warm standby, and
// "dies" (its store abandoned un-closed, like SIGKILL). The standby is
// promoted, the node re-registers with it, and the workload runs to
// completion — with every job's delivered volume exactly its total, no
// lost and no double-counted work — and the promoted server passes the
// recovery-equivalence oracle.
func TestFailoverPreservesWorkExactlyOnce(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary, _ := newDurableRM(t, pdir, false)
	follower, _ := newReplicaRM(t, fdir, "")

	register(t, primary, "n1", 8, 16*1024)
	submitBoth(t, primary)
	pending := runSlots(t, primary, "n1", 3, nil)
	if len(pending) == 0 {
		t.Fatal("workload produced no in-flight leases before the crash")
	}
	pumpRepl(t, primary, follower)

	// Primary dies here: nothing more ships. Promote the standby.
	resp, err := follower.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if resp.Role != "primary" || resp.Epoch != 2 {
		t.Fatalf("Promote = %+v, want primary at epoch 2", resp)
	}
	if resp.OrphanLeasesRequeued == 0 {
		t.Error("promotion requeued no orphan leases despite in-flight work")
	}

	register(t, follower, "n1", 8, 16*1024)
	st := driveToCompletion(t, follower, []string{"n1"}, 200)
	if len(st.Jobs) != 3 {
		t.Fatalf("promoted RM tracks %d jobs, want 3 (workflow a,b + adhoc)", len(st.Jobs))
	}
	for _, j := range st.Jobs {
		if j.State != "completed" {
			t.Errorf("job %s state %s, want completed", j.ID, j.State)
		}
		if j.Delivered != j.Total {
			t.Errorf("job %s delivered %+v, want exactly %+v", j.ID, j.Delivered, j.Total)
		}
	}
	if err := follower.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("recovery equivalence on promoted RM: %v", err)
	}
}

// TestFencingRejectsDeposedPrimary covers both fencing directions: the
// follower rejects late batches from the deposed primary's old epoch,
// and the old primary self-fences the moment it sees the higher epoch.
func TestFencingRejectsDeposedPrimary(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary, _ := newDurableRM(t, pdir, true)
	follower, _ := newReplicaRM(t, fdir, "")

	register(t, primary, "n1", 4, 8*1024)
	submitBoth(t, primary)
	runSlots(t, primary, "n1", 2, nil)
	pumpRepl(t, primary, follower)

	// Capture a batch from the old epoch, then promote behind the
	// primary's back.
	staleResp, err := primary.ShipLog(rmproto.ShipRequest{Epoch: follower.Epoch()})
	if err != nil {
		t.Fatalf("ShipLog: %v", err)
	}
	if _, err := follower.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if _, err := follower.IngestShipment(staleResp); err == nil {
		t.Error("follower ingested a deposed primary's batch")
	}

	// The old primary sees the new epoch on the next ship request and
	// fences itself; every mutation is rejected from then on.
	if _, err := primary.ShipLog(rmproto.ShipRequest{Epoch: follower.Epoch()}); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("higher-epoch ship = %v, want ErrNotLeader (self-fence)", err)
	}
	if err := primary.Tick(time.Now()); !errors.Is(err, ErrNotLeader) {
		t.Errorf("fenced primary Tick = %v, want ErrNotLeader", err)
	}
	if _, err := primary.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1"}, time.Now()); !errors.Is(err, ErrNotLeader) {
		t.Errorf("fenced primary Heartbeat = %v, want ErrNotLeader", err)
	}
	if _, err := primary.RegisterNode(rmproto.RegisterNodeRequest{
		NodeID: "n2", Capacity: rmproto.Resources{VCores: 1, MemoryMB: 1024},
	}, time.Now()); !errors.Is(err, ErrNotLeader) {
		t.Errorf("fenced primary RegisterNode = %v, want ErrNotLeader", err)
	}

	// An explicit fence with a yet-higher epoch is also honored, and a
	// stale one is rejected.
	if _, err := primary.Fence(rmproto.FenceRequest{Epoch: 1}); err == nil {
		t.Error("stale fence accepted")
	}
	fr, err := primary.Fence(rmproto.FenceRequest{Epoch: follower.Epoch() + 1, Leader: "http://new"})
	if err != nil || !fr.Fenced {
		t.Errorf("Fence = %+v, %v; want fenced", fr, err)
	}
}

// TestFollowerRejectsMutationsOverHTTP drives the read-only contract
// through the HTTP surface: mutations get 503 + not_leader with the
// leader hint, status stays readable, and the client maps the response
// back to ErrNotLeader.
func TestFollowerRejectsMutationsOverHTTP(t *testing.T) {
	follower, _ := newReplicaRM(t, t.TempDir(), "http://leader.example:8030")
	srv := httptest.NewServer(follower.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, nil)
	ctx := context.Background()

	_, err := client.RegisterNode(ctx, rmproto.RegisterNodeRequest{
		NodeID: "n1", Capacity: rmproto.Resources{VCores: 1, MemoryMB: 1024},
	})
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("register on follower = %v, want ErrNotLeader", err)
	}
	if hint := LeaderHint(err); hint != "http://leader.example:8030" {
		t.Errorf("leader hint %q, want the configured leader URL", hint)
	}
	if !Retryable(err) {
		t.Error("not_leader should be retryable (503) so rotation can find the leader")
	}
	if err := client.Tick(ctx); !errors.Is(err, ErrNotLeader) {
		t.Errorf("tick on follower = %v, want ErrNotLeader", err)
	}

	st, err := client.Status(ctx)
	if err != nil {
		t.Fatalf("Status on follower: %v", err)
	}
	if st.Replication == nil || st.Replication.Role != "follower" {
		t.Fatalf("follower status replication block = %+v, want role follower", st.Replication)
	}
}

// TestRunReplicatorEndToEnd runs the real pull loop over HTTP: the
// follower catches up and stays caught up while the primary works, and
// after a promotion the loop fences the old primary and exits.
func TestRunReplicatorEndToEnd(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary, _ := newDurableRM(t, pdir, true)
	psrv := httptest.NewServer(primary.Handler())
	defer psrv.Close()
	follower, _ := newReplicaRM(t, fdir, psrv.URL)
	fsrv := httptest.NewServer(follower.Handler())
	defer fsrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	replDone := make(chan error, 1)
	go func() {
		replDone <- follower.RunReplicator(ctx, ReplicatorConfig{
			Primary:  psrv.URL,
			Self:     fsrv.URL,
			Interval: 2 * time.Millisecond,
		})
	}()

	register(t, primary, "n1", 8, 16*1024)
	submitBoth(t, primary)
	runSlots(t, primary, "n1", 4, nil)

	deadline := time.Now().Add(10 * time.Second)
	for follower.store.Watermark() != primary.store.Watermark() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %v vs %v",
				follower.store.Watermark(), primary.store.Watermark())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The primary has seen its follower: lag shows up in status.
	pst := primary.Status()
	if pst.Replication == nil || !pst.Replication.FollowerSeen {
		t.Fatalf("primary status %+v, want follower seen", pst.Replication)
	}

	if _, err := follower.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	select {
	case err := <-replDone:
		if err != nil {
			t.Fatalf("RunReplicator returned %v, want nil after promotion", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunReplicator did not exit after promotion")
	}
	// The loop's parting fence deposed the old primary.
	if err := primary.Tick(time.Now()); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("old primary Tick after fence = %v, want ErrNotLeader", err)
	}
	if hint := primary.Status().Replication.LeaderURL; hint != fsrv.URL {
		t.Errorf("old primary leader hint %q, want %q", hint, fsrv.URL)
	}
}

// TestAgentFollowsLeaderAcrossFailover runs the real node agent against
// a replicated pair: pointed at the primary first, it must re-register
// with the standby after promotion + fencing, with no manual help. The
// pair runs a small slot so the agent heartbeats fast enough to observe
// the fence within the test budget (the RM dictates SlotDur as the
// heartbeat interval).
func TestAgentFollowsLeaderAcrossFailover(t *testing.T) {
	const fastSlot = 50 * time.Millisecond
	newFastRM := func(dir string, followerOf string) *Server {
		st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncAlways})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		rm, err := New(Config{
			SlotDur: fastSlot, Scheduler: sched.NewFIFO(), Store: st,
			Follower: followerOf != "", LeaderURL: followerOf,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return rm
	}
	primary := newFastRM(t.TempDir(), "")
	psrv := httptest.NewServer(primary.Handler())
	defer psrv.Close()
	follower := newFastRM(t.TempDir(), psrv.URL)
	fsrv := httptest.NewServer(follower.Handler())
	defer fsrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- RunAgent(ctx, NewClient(psrv.URL, nil), AgentConfig{
			NodeID:   "n1",
			Capacity: rmproto.Resources{VCores: 4, MemoryMB: 8 * 1024},
			RMs:      []string{psrv.URL, fsrv.URL},
			Backoff:  Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, MaxAttempts: 2},
		})
	}()

	waitNodes := func(rm *Server, label string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for rm.Status().Nodes != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("agent never registered with the %s", label)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitNodes(primary, "primary")

	pumpRepl(t, primary, follower)
	if _, err := follower.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if _, err := primary.Fence(rmproto.FenceRequest{Epoch: follower.Epoch(), Leader: fsrv.URL}); err != nil {
		t.Fatalf("Fence: %v", err)
	}
	// The agent's next heartbeat hits the fenced primary, gets not_leader
	// plus the leader hint, and re-registers with the promoted follower.
	waitNodes(follower, "promoted follower")

	cancel()
	if err := <-agentDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAgent returned %v, want context.Canceled", err)
	}
}

// shipNegative is a ship request from a watermark no follower can hold.
const shipNegative = `{"epoch":1,"from":{"gen":0,"records":-1}}`

// replPrimary is a store-backed primary holding a few records: a node, a
// workflow and an ad-hoc job, two slots in.
func replPrimary(t *testing.T) *Server {
	t.Helper()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Policy: store.SyncNever})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	rm, err := New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO(), Store: st})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	register(t, rm, "n1", 8, 16*1024)
	submitBoth(t, rm)
	runSlots(t, rm, "n1", 2, nil)
	return rm
}

// TestShipRefusesNegativeWatermark: a ship request from a negative
// watermark is a 400 that leaves the replication block as it was — it
// used to panic the handler in ShipFrom and, before that, record the
// watermark as the follower's position.
func TestShipRefusesNegativeWatermark(t *testing.T) {
	rm := replPrimary(t)
	before := *rm.Status().Replication
	rec := serve(rm.Handler(), http.MethodPost, rmproto.PathShip, shipNegative, "")
	var e rmproto.Error
	if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Message, "negative") {
		t.Fatalf("ship from a negative watermark: %d %s, want a 400 naming it", rec.Code, rec.Body)
	}
	if after := *rm.Status().Replication; after != before {
		t.Errorf("replication block went from %+v to %+v", before, after)
	}
	if _, err := rm.store.ShipFrom(store.Watermark{Records: -1}, 0); err == nil {
		t.Error("store.ShipFrom accepted a negative watermark")
	}
}

// strictDecode decodes body as the API does: one JSON value, no unknown
// fields.
func strictDecode(body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(v) != nil {
		return false
	}
	_, err := dec.Token()
	return err == io.EOF
}

// refusesMutations asserts every mutation over HTTP is a 503 not_leader.
func refusesMutations(t *testing.T, h http.Handler, what string) {
	t.Helper()
	for _, c := range []struct{ path, body string }{
		{rmproto.PathRegister, `{"node_id":"n9","capacity":{"vcores":1,"memory_mb":1024}}`},
		{rmproto.PathHeartbeat, hbBody("n1")},
		{rmproto.PathWorkflows, wfBody(t, "wf-new")},
		{rmproto.PathAdHoc, adhocBody(t, "new")},
		{rmproto.PathTick, `{}`},
	} {
		rec := serve(h, http.MethodPost, c.path, c.body, "")
		var e rmproto.Error
		if rec.Code != http.StatusServiceUnavailable || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code != rmproto.CodeNotLeader {
			t.Fatalf("%s: %s answered %d %s, want 503 not_leader", what, c.path, rec.Code, rec.Body)
		}
	}
}

// FuzzReplBody posts arbitrary bodies to POST /repl/v1/ship and
// /repl/v1/fence, each on its own store-backed primary holding a few
// records, asking for a gzipped answer or not. Whatever arrives, nothing
// panics and the answer is a 4xx that leaves the replication block as it
// was, a not_leader 503, or a 200: a ship batch of no more records than
// head − from, head being the store's watermark, gzipped exactly when
// asked; a fence, never gzipped. A well-formed ship is a 200 exactly when
// its watermark is not negative and its epoch not above the RM's, and a
// 503 otherwise; a well-formed fence is a 200 exactly when its epoch is
// above the RM's. Once either has deposed the RM, every mutation is
// refused with not_leader.
func FuzzReplBody(f *testing.F) {
	for _, seed := range []string{
		shipNegative,
		`{"epoch":1,"from":{"gen":-1,"records":0}}`,
		`{"epoch":1,"from":{"gen":0,"records":0,"bytes":-5}}`,
		`{"epoch":1,"from":{"gen":0,"records":0,"bytes":0}}`,
		`{"epoch":1,"from":{"gen":0,"records":3},"max_bytes":1}`,
		`{"epoch":1,"from":{"gen":0,"records":99}}`,
		`{"epoch":1,"from":{"gen":7,"records":0}}`,
		`{"epoch":0,"from":{"gen":0,"records":0}}`,
		`{"epoch":2,"from":{"gen":0,"records":0},"follower_url":"http://f"}`,
		`{"epoch":2,"leader":"http://f"}`,
		`{"epoch":1}`, `{"epoch":-1}`, `{"epoch":9223372036854775807}`,
		`{"epoch":1,"from":{"gen":0,"records":0}}{"epoch":2}`,
		`{"epoch":"2"}`, `{"epoch":2,"extra":1}`,
		`{}`, `[]`, `null`, ``, `{"epoch":`, "\x00\xff",
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, gz bool) {
		ae := ""
		if gz {
			ae = "gzip"
		}
		for _, path := range []string{rmproto.PathShip, rmproto.PathFence} {
			rm := replPrimary(t)
			h := rm.Handler()
			before := *rm.Status().Replication
			rec := serve(h, http.MethodPost, path, string(body), ae)
			what := fmt.Sprintf("%s %q (gzip %v)", path, body, gz)
			after := *rm.Status().Replication

			var ship rmproto.ShipRequest
			var fence rmproto.FenceRequest
			var want int // the code a well-formed body must get; 0 for any other body
			switch {
			case path == rmproto.PathShip && strictDecode(body, &ship):
				from := store.Watermark{Gen: ship.From.Gen, Records: ship.From.Records, Bytes: ship.From.Bytes}
				switch {
				case from.Validate() != nil:
					want = http.StatusBadRequest
				case ship.Epoch > before.Epoch:
					want = http.StatusServiceUnavailable
				default:
					want = http.StatusOK
				}
			case path == rmproto.PathFence && strictDecode(body, &fence):
				want = http.StatusBadRequest
				if fence.Epoch > before.Epoch {
					want = http.StatusOK
				}
			}
			if want != 0 && rec.Code != want {
				t.Fatalf("%s: %d %s, want %d", what, rec.Code, rec.Body, want)
			}
			if gzipped := rec.Header().Get("Content-Encoding") == "gzip"; gzipped != (gz && path == rmproto.PathShip && rec.Code == http.StatusOK) {
				t.Fatalf("%s: %d with Content-Encoding %q", what, rec.Code, rec.Header().Get("Content-Encoding"))
			}
			raw := rec.Body.Bytes()
			if rec.Header().Get("Content-Encoding") == "gzip" {
				var err error
				if raw, err = gunzip(raw); err != nil {
					t.Fatalf("%s: inflate: %v", what, err)
				}
			}

			switch {
			case rec.Code == http.StatusOK && path == rmproto.PathShip:
				var resp rmproto.ShipResponse
				if want == 0 || json.Unmarshal(raw, &resp) != nil {
					t.Fatalf("%s: 200 with %q", what, raw)
				}
				head := rm.store.Watermark()
				bound := head.Records - ship.From.Records
				if resp.SnapInstall {
					bound = head.Records
				} else if resp.Gen != ship.From.Gen || resp.FromSeq != ship.From.Records {
					t.Fatalf("%s: incremental batch of gen %d from %d", what, resp.Gen, resp.FromSeq)
				}
				if resp.Head != (rmproto.ReplWatermark{Gen: head.Gen, Records: head.Records, Bytes: head.Bytes}) || resp.Gen != head.Gen || int64(len(resp.Records)) > bound {
					t.Fatalf("%s: batch of %d records at gen %d with head %+v; the store is at %v", what, len(resp.Records), resp.Gen, resp.Head, head)
				}
				if after.FollowerWatermark != ship.From {
					t.Fatalf("%s: follower recorded at %+v", what, after.FollowerWatermark)
				}
			case rec.Code == http.StatusOK:
				var resp rmproto.FenceResponse
				if want == 0 || json.Unmarshal(raw, &resp) != nil || !resp.Fenced || resp.Epoch != fence.Epoch {
					t.Fatalf("%s: 200 with %q", what, raw)
				}
			case rec.Code == http.StatusServiceUnavailable:
				var e rmproto.Error
				if json.Unmarshal(raw, &e) != nil || e.Code != rmproto.CodeNotLeader {
					t.Fatalf("%s: 503 with %q", what, raw)
				}
			case rec.Code >= 400 && rec.Code <= 499:
				var e rmproto.Error
				if json.Unmarshal(raw, &e) != nil || e.Message == "" {
					t.Fatalf("%s: %d with %q", what, rec.Code, raw)
				}
				if after != before {
					t.Fatalf("%s: refused, yet the replication block went from %+v to %+v", what, before, after)
				}
			default:
				t.Fatalf("%s: status %d", what, rec.Code)
			}
			if after.Fenced {
				refusesMutations(t, h, what)
			}
		}
	})
}
