package core

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// TestFoldAdHocDrainReservesCapacity drives the sched.AdHocFolder path
// end to end inside the scheduler: a drain fold must (a) not trip an
// urgent replan — it is batched as quality staleness — and (b) make the
// next replan keep deadline work that fits beside the reservations clear
// of them, while planCap keeps recording RAW capacity so the fold itself
// never looks like a cluster capacity change.
func TestFoldAdHocDrainReservesCapacity(t *testing.T) {
	f := New(Config{Slack: 0})
	capacity := resource.New(10, 1000)
	rem := resource.New(100, 10000) // 20-slot window, ~5 cores/slot flattened
	mk := func(now int64) sched.AssignContext {
		return sched.AssignContext{
			Now: now, Changed: true,
			Jobs:    []sched.JobState{dlJob("j", 0, 20, rem, capacity)},
			Cluster: view(capacity, 40),
		}
	}

	step := func(now int64) {
		t.Helper()
		grants, err := f.Assign(mk(now))
		if err != nil {
			t.Fatalf("Assign(%d): %v", now, err)
		}
		rem = rem.SubClamped(grants["j"])
	}

	step(0)
	if f.stats.Replans != 1 {
		t.Fatalf("initial Replans = %d, want 1", f.stats.Replans)
	}

	// The gate retires an epoch: 5 cores / 500 MB admitted at slots 0..9.
	consumed := make([]resource.Vector, 10)
	for i := range consumed {
		consumed[i] = resource.New(5, 500)
	}
	f.FoldAdHocDrain(0, consumed)
	if f.stats.AdHocFolds != 1 {
		t.Fatalf("AdHocFolds = %d, want 1", f.stats.AdHocFolds)
	}

	// Slots 1..4: the fold is quality staleness only — no replan before
	// the batching interval elapses.
	for now := int64(1); now < qualityReplanInterval; now++ {
		step(now)
		if f.stats.Replans != 1 {
			t.Fatalf("slot %d tripped replan %d — fold must not be urgent", now, f.stats.Replans)
		}
	}

	// Slot 5: the batched quality replan fires and folds the reservations.
	atReplan := rem
	step(qualityReplanInterval)
	if f.stats.Replans != 2 {
		t.Fatalf("Replans = %d after interval, want 2 (batched fold)", f.stats.Replans)
	}
	// Reserved slots (abs 5..9 = plan offsets 0..4) leave the admitted
	// volume untouched; beyond them the full capacity is usable.
	free := capacity.Sub(resource.New(5, 500))
	load := planLoad(f.live)
	for off := int64(0); off < 5 && off < int64(len(load)); off++ {
		if !load[off].FitsIn(free) {
			t.Errorf("plan offset %d load %v exceeds shaved capacity %v", off, load[off], free)
		}
	}
	// planCap must keep the RAW capacity — otherwise every later slot
	// would compare CapAt != planCap and trip an urgent replan.
	for off, pc := range f.planCap {
		if pc != capacity {
			t.Fatalf("planCap[%d] = %v, want raw capacity %v", off, pc, capacity)
		}
	}
	// And indeed the following slot must not replan again.
	step(qualityReplanInterval + 1)
	if f.stats.Replans != 2 {
		t.Fatalf("Replans = %d one slot after fold, want still 2", f.stats.Replans)
	}
	// The plan must still cover the whole demand that remained at the
	// replan: it fits beside the reservation (5 free on each of slots 5..9,
	// 10 on each of 10..19), so nothing is deferred and nothing yielded.
	var planned resource.Vector
	for _, g := range f.live.Jobs["j"].Alloc {
		planned = planned.Add(g)
	}
	if planned != atReplan || len(f.deferred) != 0 {
		t.Fatalf("planned %v of %v remaining, deferred %v", planned, atReplan, f.deferred)
	}
	if f.stats.AdHocYields != 0 || !f.stats.AdHocYielded.IsZero() {
		t.Errorf("AdHocYields = %d (%v) though the deadline work fits beside the reservation",
			f.stats.AdHocYields, f.stats.AdHocYielded)
	}
}

// TestReservationYieldsToDeadline is the regression for the gate costing
// a deadline: capacity 10, the gate has promised 8 per slot over slots
// 0..9, and then a deadline job arrives that needs 40 of the 50 units of
// its window [0, 5). The reservation is a promise to best-effort work, so
// the plan must place all 40 in-window and report no shortfall; planned
// against capacity minus reservations, 30 units were deferred and parked
// until the plan was deferredRetryInterval slots old.
func TestReservationYieldsToDeadline(t *testing.T) {
	f := New(Config{Slack: 0})
	capacity := resource.New(10, 1000)
	consumed := make([]resource.Vector, 10)
	for i := range consumed {
		consumed[i] = resource.New(8, 800)
	}
	f.FoldAdHocDrain(0, consumed)

	demand := resource.New(40, 4000)
	if _, err := f.Assign(sched.AssignContext{
		Now: 0, Changed: true,
		Jobs:    []sched.JobState{dlJob("j", 0, 5, demand, capacity)},
		Cluster: view(capacity, 40),
	}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	var planned resource.Vector
	for _, g := range f.live.Jobs["j"].Alloc {
		planned = planned.Add(g)
	}
	if planned != demand {
		t.Errorf("planned %v in-window, want all of %v", planned, demand)
	}
	if len(f.deferred) != 0 {
		t.Errorf("deferred = %v, want none (and so no retry due)", f.deferred)
	}
	st := f.Stats()
	if st.ShortfallEvents != 0 || st.SlackDropped != 0 {
		t.Errorf("ShortfallEvents = %d, SlackDropped = %d, want 0 and 0", st.ShortfallEvents, st.SlackDropped)
	}
	// 50 units of window, 40 of deadline work: 10 of the 40 reserved
	// survive and 30 give way, in one replan.
	if want := resource.New(30, 3000); st.AdHocYields != 1 || st.AdHocYielded != want {
		t.Errorf("AdHocYields = %d, AdHocYielded = %v, want 1 and %v", st.AdHocYields, st.AdHocYielded, want)
	}
}

// TestStageAIgnoresReservations checks the construction the planner
// relies on, on seeded instances: with reservations routed last, every
// deadline job's stage A shortfall is the one it has with no reservation
// at all, each reservation keeps between nothing and its clamped volume,
// and what is kept and what yielded add up to what was reserved.
func TestStageAIgnoresReservations(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nSlots := int64(2 + rng.Intn(8))
		capacity := resource.New(int64(2+rng.Intn(9)), 0)
		cl := view(capacity, 100)
		var jobs []*planJob
		for i := 0; i < 1+rng.Intn(6); i++ {
			rel := rng.Int63n(nSlots)
			dl := rel + 1 + rng.Int63n(nSlots-rel)
			pj := mkPlanJob(fmt.Sprintf("j%d", i), rel, dl, 1+rng.Int63n(capacity.Get(resource.VCores)))
			pj.state.EstRemaining = resource.New(1+rng.Int63n(3*(dl-rel)), 0)
			jobs = append(jobs, pj)
		}
		ctx := sched.AssignContext{Now: 0, Cluster: cl}

		bare := New(Config{}).stageA(ctx, jobs, nSlots, nSlots)[0]

		f := New(Config{})
		rsv := make([]resource.Vector, nSlots)
		for i := range rsv {
			rsv[i] = resource.New(rng.Int63n(capacity.Get(resource.VCores)+3), 0) // may exceed capacity: clamped
		}
		f.FoldAdHocDrain(0, rsv)
		p := f.stageA(ctx, jobs, nSlots, nSlots)[0]
		if p.err != nil || bare.err != nil {
			t.Fatalf("seed %d: stage A errors %v / %v", seed, p.err, bare.err)
		}
		for i := range p.pjs {
			if p.route.Short[i] != bare.route.Short[i] {
				t.Fatalf("seed %d: job %s short %d beside reservations %v, %d without",
					seed, p.pjs[i].state.ID, p.route.Short[i], rsv, bare.route.Short[i])
			}
		}
		if p.isShort() != bare.isShort() {
			t.Fatalf("seed %d: isShort %v beside reservations, %v without", seed, p.isShort(), bare.isShort())
		}
		kept, yielded := p.reserved()
		var total, keptSum int64
		for slot, k := range kept {
			want := min(rsv[slot].Get(resource.VCores), p.caps[slot])
			if k < 0 || k > want {
				t.Fatalf("seed %d: slot %d keeps %d of a reservation of %d", seed, slot, k, want)
			}
			total += want
			keptSum += k
		}
		if keptSum+yielded != total {
			t.Fatalf("seed %d: kept %v + yielded %d != reserved %d", seed, kept, yielded, total)
		}
	}
}

// TestFoldAdHocDrainMergeAndTrim unit-tests the reservation bookkeeping:
// zero volumes are not stored, overlapping drains add, and the replan
// that passes a slot drops it.
func TestFoldAdHocDrainMergeAndTrim(t *testing.T) {
	f := New(DefaultConfig())

	// All-zero drains are dropped without marking staleness.
	f.FoldAdHocDrain(0, []resource.Vector{{}, {}})
	if f.stats.AdHocFolds != 0 || f.adhocStale || len(f.adhocReserved) != 0 {
		t.Fatalf("zero drain counted: folds=%d stale=%v reserved=%v", f.stats.AdHocFolds, f.adhocStale, f.adhocReserved)
	}

	// Only the non-zero slots are stored.
	f.FoldAdHocDrain(3, []resource.Vector{{}, resource.New(2, 20), resource.New(1, 10), {}})
	if len(f.adhocReserved) != 2 {
		t.Fatalf("after first fold: reserved=%v, want slots 4 and 5", f.adhocReserved)
	}
	if !f.adhocStale || f.stats.AdHocFolds != 1 {
		t.Fatalf("fold did not count or mark quality staleness: folds=%d stale=%v", f.stats.AdHocFolds, f.adhocStale)
	}

	// An overlapping drain ADDS on shared slots.
	f.FoldAdHocDrain(2, []resource.Vector{resource.New(4, 40), {}, resource.New(3, 30)})
	want := map[int64]resource.Vector{
		2: resource.New(4, 40),
		4: resource.New(5, 50), // 2+3
		5: resource.New(1, 10),
	}
	if !maps.Equal(f.adhocReserved, want) {
		t.Fatalf("after merge: reserved=%v, want %v", f.adhocReserved, want)
	}

	// A replan at slot 4 drops slot 2 (slot 3 holds nothing) and keeps 4
	// and 5 as they were.
	replanAt := func(now int64) {
		t.Helper()
		if _, err := f.Assign(sched.AssignContext{Now: now, Cluster: view(resource.New(10, 1000), 200)}); err != nil {
			t.Fatalf("Assign(%d): %v", now, err)
		}
	}
	replanAt(4)
	delete(want, 2)
	if !maps.Equal(f.adhocReserved, want) {
		t.Fatalf("after a replan at slot 4: reserved=%v, want %v", f.adhocReserved, want)
	}
	// A replan past every slot empties the map; the fold at slot 50 makes
	// the plan stale enough to replan.
	f.FoldAdHocDrain(50, []resource.Vector{resource.New(1, 10)})
	replanAt(100)
	if f.stats.Replans != 2 || len(f.adhocReserved) != 0 {
		t.Fatalf("after a replan at slot 100 (replans=%d): reserved=%v, want none", f.stats.Replans, f.adhocReserved)
	}
}
