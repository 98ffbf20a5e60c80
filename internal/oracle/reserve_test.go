package oracle

import (
	"math"
	"math/rand"
	"testing"
)

// TestReservationsYield sweeps the relation that licenses planning gate
// reservations as one-slot jobs routed last (CheckReservationsYield) over
// 400 seeded instances, every fourth far beyond brute-force reach, and
// requires that the sweep actually saw reservations give way and
// reservations survive whole — a relation checked only where nothing
// yields proves nothing.
func TestReservationsYield(t *testing.T) {
	const cases = 400
	rng := rand.New(rand.NewSource(19))
	yielded, whole := 0, 0
	for i := 0; i < cases; i++ {
		in := GenInstance(rng)
		if i%4 == 0 {
			in = GenLargeInstance(rng)
		}
		rsv := GenReservations(in, rng.Int63())
		if err := CheckReservationsYield(in, rsv, Tol); err != nil {
			t.Fatalf("case %d: %v\ninstance: %+v\nreservations: %v", i, err, in, rsv)
		}
		bare, err := MaxFlowLP(in)
		if err != nil {
			t.Fatal(err)
		}
		with := withReservations(in, rsv)
		joint, err := MaxFlowLP(with)
		if err != nil {
			t.Fatal(err)
		}
		var reserved int64
		for _, job := range with.Jobs[len(in.Jobs):] {
			reserved += job.Demand
		}
		switch kept := joint - bare; {
		case reserved == 0:
		case kept < float64(reserved)-Tol:
			yielded++
		default:
			whole++
		}
	}
	if yielded < cases/10 || whole < cases/10 {
		t.Fatalf("%d instances where a reservation yielded, %d where all survived, of %d: the sweep is one-sided", yielded, whole, cases)
	}
}

// TestReservationYieldsKnownInstance is the gate-costs-a-deadline
// instance by hand: capacity 10, 8 reserved on each of five slots, one
// job needing 40 of the window's 50. Nothing is short, 10 of the 40
// reserved survive.
func TestReservationYieldsKnownInstance(t *testing.T) {
	in := Instance{
		Caps: []int64{10, 10, 10, 10, 10},
		Jobs: []Job{{Demand: 40, Rel: 0, Dl: 5, Cap: 10}},
	}
	rsv := []int64{8, 8, 8, 8, 8}
	if err := CheckReservationsYield(in, rsv, Tol); err != nil {
		t.Fatal(err)
	}
	bare, err := MaxFlowLP(in)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := MaxFlowLP(withReservations(in, rsv))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bare-40) > Tol || math.Abs(joint-50) > Tol {
		t.Fatalf("reference max flows %g and %g, want 40 and 50", bare, joint)
	}
}
