package rmstate

import (
	"math/rand"
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

// TestTickRequeuesWhatTheFullWalkFinds: after every record of a seeded
// sequence — ticks and hand-offs granting leases of drawn expiries,
// confirms, requeues, ticks reclaiming the leases of a drawn expired node
// or past their expiry, and a snapshot restored midway — DecideTick
// requeues what a walk of every lease selects with its predicate
// (DecideRequeue), though it skips the walk while no lease can go.
func TestTickRequeuesWhatTheFullWalkFinds(t *testing.T) {
	const leaseExpiry, steps = 3, 300
	slotDur := 10 * time.Second
	nodes := []string{"n1", "n2", "n3"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(slotDur, leaseExpiry)
		id := admitAdHoc(t, s, "a", 100000, 10, resource.New(1, 256)).ID
		fullWalk := func(expired map[string]bool) []rmproto.QuantumNum {
			return s.DecideRequeue(func(l *Lease) bool { return expired[l.NodeID] || s.slot >= l.Expiry }).QIDs
		}
		// grant adds k leases to rec, each on a drawn node and expiring
		// 1 to leaseExpiry slots after the slot it is issued in.
		grant := func(rec *RecTick, k int) {
			j := s.Jobs()[id]
			for range k {
				rec.Grants = append(rec.Grants, RecGrant{
					QID: s.nextQID + rmproto.QuantumNum(len(rec.Grants)) + 1, JobID: j.ID,
					NodeID: nodes[rng.Intn(len(nodes))], Grant: j.Task, Expiry: rec.Slot + rng.Int63n(leaseExpiry),
				})
			}
		}
		// some draws about half of the live leases, in issue order.
		some := func() []rmproto.QuantumNum {
			var qids []rmproto.QuantumNum
			for _, q := range fullWalk(map[string]bool{"n1": true, "n2": true, "n3": true}) {
				if rng.Intn(2) == 0 {
					qids = append(qids, q)
				}
			}
			return qids
		}
		apply := func(step int, rec *Record) {
			if err := s.Apply(rec); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			want := fullWalk(nil)
			if got, _ := s.DecideTick(nil, false); !slices.Equal(got.Requeued, want) {
				t.Fatalf("seed %d step %d, slot %d: the tick requeues %v, the full walk %v", seed, step, s.slot, got.Requeued, want)
			}
		}
		var requeued int
		for step := range steps {
			if step == steps/2 {
				snap, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if s, err = Restore(slotDur, leaseExpiry, snap); err != nil {
					t.Fatal(err)
				}
			}
			switch r := rng.Intn(8); {
			case r < 3: // a tick
				var expired map[string]bool
				if rng.Intn(4) == 0 {
					expired = map[string]bool{nodes[rng.Intn(len(nodes))]: true}
				}
				want := fullWalk(expired)
				rec, _ := s.DecideTick(expired, false)
				if !slices.Equal(rec.Requeued, want) {
					t.Fatalf("seed %d step %d, slot %d, expired %v: the tick requeues %v, the full walk %v", seed, step, s.slot, expired, rec.Requeued, want)
				}
				requeued += len(rec.Requeued)
				grant(rec, rng.Intn(3))
				apply(step, &Record{Tick: rec})
			case r < 5: // a hand-off, at the current slot
				rec := &RecTick{Slot: s.slot}
				grant(rec, 1+rng.Intn(2))
				apply(step, &Record{Tick: rec})
			case r < 7:
				apply(step, &Record{Confirm: &RecConfirm{Slot: s.slot, QIDs: some()}})
			default:
				apply(step, &Record{Requeue: &RecRequeue{QIDs: some()}})
			}
		}
		if requeued == 0 {
			t.Errorf("seed %d: no tick requeued a lease", seed)
		}
	}
}
