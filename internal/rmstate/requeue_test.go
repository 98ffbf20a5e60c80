package rmstate

import (
	"slices"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
)

// TestRequeueInIssueOrder: leases 9 and 10, expiring in one tick, are
// requeued as [9, 10] — issue order, the order a snapshot lists leases
// in — and not as their IDs spell, which puts "q-10" before "q-9".
func TestRequeueInIssueOrder(t *testing.T) {
	s := New(10*time.Second, 3)
	j := admitAdHoc(t, s, "a", 10, 10, resource.New(1, 256))
	tick := &RecTick{Slot: 1}
	for n := rmproto.QuantumNum(1); n <= 10; n++ {
		expiry := int64(5)
		if n >= 9 {
			expiry = 2
		}
		tick.Grants = append(tick.Grants, RecGrant{QID: n, JobID: j.ID, NodeID: "n1", Grant: j.Task, Expiry: expiry})
	}
	if err := s.Apply(&Record{Tick: tick}); err != nil {
		t.Fatal(err)
	}
	next, _ := s.DecideTick(nil, false)
	if err := s.Apply(&Record{Tick: next}); err != nil {
		t.Fatal(err)
	}
	expired, _ := s.DecideTick(nil, false)
	if want := []rmproto.QuantumNum{9, 10}; !slices.Equal(expired.Requeued, want) {
		t.Errorf("the tick of slot 3 requeues %v, want %v", expired.Requeued, want)
	}
	if got := s.DecideRequeue(func(*Lease) bool { return true }).QIDs; !slices.IsSorted(got) || len(got) != 10 {
		t.Errorf("requeuing every lease lists %v, want 1 to 10 in order", got)
	}
}
