package rmserver

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmstate"
	"flowtime/internal/store"
)

// verifyEquiv runs the recovery-equivalence oracle against a fresh
// scratch directory and fails the test on any divergence.
func verifyEquiv(t *testing.T, rm *Server, tag string) {
	t.Helper()
	scratch := filepath.Join(t.TempDir(), "copy")
	if err := rm.VerifyRecoveryEquivalence(scratch); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Errorf("%s: scratch copy not cleaned up after success", tag)
	}
}

// TestRecoveryEquivalenceAcrossLifecycle checks the oracle at every
// interesting point of an RM's life: empty, after admission, with
// leases in flight (the mid-run SIGKILL point), after a snapshot
// rotation, and after all work completed.
func TestRecoveryEquivalenceAcrossLifecycle(t *testing.T) {
	c := newCluster(t, Config{}, &durable{})
	rm := c.rm
	verifyEquiv(t, rm, "empty")

	c.register("n1", 8, 32768)
	submitBoth(t, rm)
	verifyEquiv(t, rm, "after admission")

	c.run(3)
	if len(c.held["n1"]) == 0 {
		t.Fatal("expected in-flight leases at the mid-run check")
	}
	verifyEquiv(t, rm, "mid-run with in-flight leases")

	if err := rm.WriteSnapshot(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	verifyEquiv(t, rm, "after snapshot rotation")

	c.run(2)
	verifyEquiv(t, rm, "after confirms")

	c.runToCompletion(200)
	verifyEquiv(t, rm, "after completion")
}

// TestRecoveryEquivalenceConcurrent hammers the RM with ticks,
// heartbeats, and submissions while the equivalence oracle runs
// concurrently — the -race chaos configuration the acceptance criteria
// call for. Every verification must pass against whatever consistent
// instant it captures.
func TestRecoveryEquivalenceConcurrent(t *testing.T) {
	c := newCluster(t, Config{}, &durable{})
	rm := c.rm
	c.register("n1", 8, 32768)
	submitBoth(t, rm)

	// The slots run on a goroutine of their own, which may not end the test
	// with t.Fatal, so they play their own loop on the cluster's clock.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var pending []string
		now := c.now
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			now = now.Add(slotDur)
			if err := rm.Tick(now); err != nil {
				t.Errorf("Tick: %v", err)
				return
			}
			resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: pending}, now)
			if err != nil {
				t.Errorf("Heartbeat: %v", err)
				return
			}
			pending = pending[:0]
			for _, q := range resp.Launch {
				pending = append(pending, q.ID)
			}
			if i%7 == 0 {
				if err := rm.WriteSnapshot(); err != nil {
					t.Errorf("WriteSnapshot: %v", err)
					return
				}
			}
		}
	}()

	base := t.TempDir()
	for i := 0; i < 8; i++ {
		scratch := filepath.Join(base, fmt.Sprintf("copy-%d", i))
		if err := rm.VerifyRecoveryEquivalence(scratch); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("concurrent verification %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRecoveryEquivalenceRequiresStore(t *testing.T) {
	if err := newCluster(t, Config{}, nil).rm.VerifyRecoveryEquivalence(t.TempDir()); err == nil {
		t.Fatal("want error without a store")
	}
}

// TestLiveEqualsReplayWithLeases holds what VerifyRecoveryEquivalence
// normalizes away — leases, the in-flight volume they add up to, the
// quantum counter — to live ≡ replay. Over driveMixed's seeded run
// (submissions, ticks, confirming heartbeats that dispatch hand-offs, a
// re-registration, lease expiries), after every call that may change the
// RM, a copy of its state directory recovered as a follower, which
// requeues nothing, must hold the live state byte for byte, and each job
// the same in-flight volume, which the snapshot leaves to its leases.
func TestLiveEqualsReplayWithLeases(t *testing.T) {
	dir := t.TempDir()
	c := newCluster(t, mixedConfig(), &durable{dir: dir, policy: store.SyncNever})
	rm := c.rm
	driveMixed(t, c, 1, 20, func(int) {}, func(what string) {
		live, replayed, follower := liveAndReplayed(t, rm)
		if !bytes.Equal(live.snapshot, replayed.snapshot) {
			t.Fatalf("after %s, replaying the log does not rebuild the live state:\nlive:     %s\nreplayed: %s", what, live.snapshot, replayed.snapshot)
		}
		if !reflect.DeepEqual(live.inFlight, replayed.inFlight) {
			t.Fatalf("after %s, replaying the log does not rebuild the in-flight volume:\nlive:     %v\nreplayed: %v", what, live.inFlight, replayed.inFlight)
		}
		if f := follower.Status().Faults; f != (rmproto.FaultCounters{}) {
			t.Fatalf("after %s, the follower counted %+v replaying a log", what, f)
		}
	})
	var codec rmstate.Codec
	tickRequeues, requeueRecords := 0, 0
	for _, p := range readWAL(t, dir) {
		rec, err := codec.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Tick != nil {
			tickRequeues += len(rec.Tick.Requeued)
		}
		if rec.Requeue != nil {
			requeueRecords++
		}
	}
	if dispatched, _ := rm.HandOffs(); dispatched == 0 || tickRequeues == 0 || requeueRecords == 0 {
		t.Errorf("the run exercised too little: %d hand-offs, %d quanta requeued by ticks, %d re-registration requeues", dispatched, tickRequeues, requeueRecords)
	}
}

// TestLiveEqualsReplayIntoBareState runs the RM's state machine with no
// Server around it: after every slot of one seeded driveMixed run, the WAL
// so far, decoded and applied record by record to a bare rmstate.New,
// snapshots to the live server's state byte for byte, leases included.
func TestLiveEqualsReplayIntoBareState(t *testing.T) {
	dir := t.TempDir()
	c := newCluster(t, mixedConfig(), &durable{dir: dir, policy: store.SyncNever})
	rm := c.rm
	leased := false
	driveMixed(t, c, 1, 20, func(slot int) {
		bare := rmstate.New(rm.cfg.SlotDur, rm.cfg.LeaseExpiry)
		var codec rmstate.Codec
		for i, p := range readWAL(t, dir) {
			rec, err := codec.Decode(p)
			if err == nil {
				err = bare.Apply(&rec)
			}
			if err != nil {
				t.Fatalf("slot %d, record %d: %v", slot, i+1, err)
			}
		}
		replayed, err := bare.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if live := snapshotOf(t, rm); !bytes.Equal(live, replayed) {
			t.Fatalf("slot %d: the bare state replayed from the log differs from the live server's:\nlive:     %s\nreplayed: %s", slot, live, replayed)
		}
		leased = leased || len(bare.Leases()) > 0
	}, nil)
	if !leased {
		t.Error("no slot ended with a lease in flight: the comparison held no lease")
	}
}

// heldState is what liveAndReplayed captures of a server: its snapshot,
// and each live job's in-flight volume, which the snapshot does not hold.
type heldState struct {
	snapshot []byte
	inFlight map[string]resource.Vector
}

// heldLocked captures s's heldState; s.mu must be held.
func heldLocked(t testing.TB, s *Server) heldState {
	t.Helper()
	snapshot, err := s.st.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	h := heldState{snapshot: snapshot, inFlight: make(map[string]resource.Vector, len(s.st.Jobs()))}
	for id, j := range s.st.Jobs() {
		h.inFlight[id] = j.InFlight
	}
	return h
}

// liveAndReplayed captures rm's state and, under the same lock, copies its
// state directory — a SIGKILL at this instant — then recovers the copy as
// a follower. It returns both captures and the follower.
func liveAndReplayed(t testing.TB, rm *Server) (live, replayed heldState, follower *Server) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "copy")
	rm.mu.Lock()
	live = heldLocked(t, rm)
	err := copyDir(rm.store.Dir(), dir)
	rm.mu.Unlock()
	if err != nil {
		t.Fatalf("copy the state directory: %v", err)
	}
	f := newCluster(t, Config{SlotDur: rm.cfg.SlotDur, Follower: true}, &durable{dir: dir, policy: store.SyncNever, abandon: true})
	defer f.store.Close()
	follower = f.rm
	follower.mu.Lock()
	defer follower.mu.Unlock()
	return live, heldLocked(t, follower), follower
}
