package rmserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
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
	dir := t.TempDir()
	rm, _ := newDurableRM(t, dir, true)
	verifyEquiv(t, rm, "empty")

	register(t, rm, "n1", 8, 32768)
	submitBoth(t, rm)
	verifyEquiv(t, rm, "after admission")

	pending := runSlots(t, rm, "n1", 3, nil)
	if len(pending) == 0 {
		t.Fatal("expected in-flight leases at the mid-run check")
	}
	verifyEquiv(t, rm, "mid-run with in-flight leases")

	if err := rm.WriteSnapshot(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	verifyEquiv(t, rm, "after snapshot rotation")

	runSlots(t, rm, "n1", 2, pending)
	verifyEquiv(t, rm, "after confirms")

	driveToCompletion(t, rm, []string{"n1"}, 200)
	verifyEquiv(t, rm, "after completion")
}

// TestRecoveryEquivalenceConcurrent hammers the RM with ticks,
// heartbeats, and submissions while the equivalence oracle runs
// concurrently — the -race chaos configuration the acceptance criteria
// call for. Every verification must pass against whatever consistent
// instant it captures.
func TestRecoveryEquivalenceConcurrent(t *testing.T) {
	dir := t.TempDir()
	rm, _ := newDurableRM(t, dir, true)
	register(t, rm, "n1", 8, 32768)
	submitBoth(t, rm)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var pending []string
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := rm.Tick(time.Now()); err != nil {
				t.Errorf("Tick: %v", err)
				return
			}
			resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: pending}, time.Now())
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
	rm, err := New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := rm.VerifyRecoveryEquivalence(t.TempDir()); err == nil {
		t.Fatal("want error without a store")
	}
}

// TestLiveEqualsReplayWithLeases holds what VerifyRecoveryEquivalence
// normalizes away — leases, in-flight volume, the quantum counter — to
// live ≡ replay. Over driveMixed's seeded run (submissions, ticks,
// confirming heartbeats that dispatch hand-offs, a re-registration, lease
// expiries), after every call that may change the RM, a copy of its state
// directory recovered as a follower, which requeues nothing, must hold the
// live state byte for byte. Only the fault counters are cleared first: a
// heartbeat whose confirms are all stale journals nothing.
func TestLiveEqualsReplayWithLeases(t *testing.T) {
	dir := t.TempDir()
	rm := newMixedRM(t, dir)
	driveMixed(t, &rm, 1, 20, func(int) {}, func(what string) {
		if live, replayed := liveAndReplayed(t, rm); !bytes.Equal(live, replayed) {
			t.Fatalf("after %s, replaying the log does not rebuild the live state:\nlive:     %s\nreplayed: %s", what, live, replayed)
		}
	})
	var codec walCodec
	tickRequeues, requeueRecords := 0, 0
	for _, p := range readWAL(t, dir) {
		rec, err := codec.decode(p)
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

// liveAndReplayed snapshots rm and, under the same lock, copies its state
// directory — a SIGKILL at this instant — then recovers the copy as a
// follower. It returns both snapshots with their fault counters cleared.
func liveAndReplayed(t *testing.T, rm *Server) ([]byte, []byte) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "copy")
	rm.mu.Lock()
	live, err := rm.snapshotLocked()
	if err == nil {
		err = copyDir(rm.store.Dir(), dir)
	}
	rm.mu.Unlock()
	if err != nil {
		t.Fatalf("capture the live state: %v", err)
	}
	st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncNever})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	follower, err := New(Config{SlotDur: rm.cfg.SlotDur, Scheduler: sched.NewFIFO(), Store: st, Follower: true})
	if err != nil {
		t.Fatalf("recover the copy as a follower: %v", err)
	}
	return withoutFaults(t, live), withoutFaults(t, snapshotOf(t, follower))
}

// withoutFaults returns a snapshot with its fault counters cleared.
func withoutFaults(t *testing.T, snapshot []byte) []byte {
	t.Helper()
	var st snapState
	if err := json.Unmarshal(snapshot, &st); err != nil {
		t.Fatal(err)
	}
	st.Faults = rmproto.FaultCounters{}
	out, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
