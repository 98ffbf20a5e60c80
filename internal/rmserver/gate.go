// The ad-hoc admission gate: over a window of slots, the capacity the
// scheduler's live plan (sched.PlanStreamer.LivePlan) and the admitted
// ad-hoc work leave free. After every tick whose replan published a new
// plan the RM republishes the window from it, so ad-hoc submissions are
// admitted or rejected in O(window) against real slack without waking the
// planner. The plan is the scheduler's own and is not journaled: a
// restarted or promoted RM's gate has no window until its scheduler's
// first replan. The gate is plain state under the server's lock, like
// everything else the RM decides.
package rmserver

import (
	"sort"

	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// defaultGateWindow bounds the window published to the ad-hoc gate where
// the live plan has none to give — it is empty (no deadline jobs planned)
// or ends soon after the current slot: the whole cluster is slack there,
// but the gate still needs a finite window to charge.
const defaultGateWindow = 64

// adhocGate is the ad-hoc admission gate: over one window of slots, the
// capacity the live plan and the admitted ad-hoc work leave free, and what
// admissions took of it since the window was published. The server owns
// it and reads and writes it only under s.mu.
type adhocGate struct {
	// plan is the scheduler's plan the window was built from; nil until
	// the first republish.
	plan *plan.Plan
	// from is the absolute slot of free[0] and took[0].
	from int64
	free []resource.Vector
	took []resource.Vector
	// admitted, rejected and rebases count the gate's decisions and
	// republishes since the process started (Status().Plan.AdHoc).
	admitted, rejected, rebases int64
}

// rev is the revision of the plan the window was built from, -1 before
// the first republish.
func (g *adhocGate) rev() int64 {
	if g.plan == nil {
		return -1
	}
	return g.plan.Rev
}

// admit charges demand against the free capacity from slot to the
// window's end, all of it or none of it. The window is open-ended because
// ad-hoc jobs carry no deadline.
func (g *adhocGate) admit(slot int64, demand, perSlot resource.Vector) bool {
	lo := min(max(slot-g.from, 0), int64(len(g.free)))
	free, took := g.free[lo:], g.took[lo:]
	takes := make([]resource.Vector, len(free))
	if short := waterFill(takes, free, demand, perSlot); !short.IsZero() {
		g.rejected++
		return false
	}
	for i, v := range takes {
		free[i] = free[i].Sub(v)
		took[i] = took[i].Add(v)
	}
	g.admitted++
	return true
}

// waterFill places demand on the slots of free front to back, one kind at
// a time: each slot takes what is left of the kind's demand, at most
// perSlot of it (0 = no cap) and at most what the slot has free. It
// writes the per-slot takes over takes, which is as long as free, and
// returns the demand that did not fit; free is not modified. The kinds
// share no capacity, so each fills on its own.
func waterFill(takes, free []resource.Vector, demand, perSlot resource.Vector) (short resource.Vector) {
	clear(takes)
	for ki := range resource.Kinds() {
		need := demand[ki]
		for i := 0; i < len(free) && need > 0; i++ {
			take := min(need, free[i][ki])
			if perSlot[ki] > 0 {
				take = min(take, perSlot[ki])
			}
			takes[i][ki] = take
			need -= take
		}
		short[ki] = need
	}
	return short
}

// rebaseAdHocLocked republishes the gate after a tick when the
// scheduler's live plan is not the plan object the gate was built from:
// the scheduler publishes every revision as a new object and never
// changes one it has published. A no-op without the gate and before the
// first plan revision.
func (s *Server) rebaseAdHocLocked() {
	if s.gate == nil {
		return
	}
	if lp := s.plans.LivePlan(); lp.Rev != 0 && lp != s.gate.plan {
		s.republishAdHocLocked(lp, lp.NSlots == 0)
	}
}

// admitAdHocLocked is the admission gate's decision: it charges a job's
// volume against what is free from the current slot on. When no window
// covers the current slot — it has passed — and the scheduler has a plan,
// the gate first republishes from that plan, anchored at the current
// slot. With no plan — before the first replan of this process, a
// restarted or a promoted one included — there is no leftover to admit
// against, and the job is rejected.
func (s *Server) admitAdHocLocked(demand, perSlot resource.Vector) bool {
	g, slot := s.gate, s.st.Slot()
	if slot < g.from || slot >= g.from+int64(len(g.free)) {
		if lp := s.plans.LivePlan(); lp.Rev != 0 {
			s.republishAdHocLocked(lp, true)
		}
	}
	return g.admit(slot, demand, perSlot)
}

// republishAdHocLocked rebuilds the gate's window from lp and hands what
// the retired window's admissions took to the scheduler. The window is
// the plan's own or, anchored, starts at the current slot and runs to the
// plan's end but at least defaultGateWindow slots: past the end of the
// plan, as in an empty one, the whole cluster is leftover.
func (s *Server) republishAdHocLocked(lp *plan.Plan, anchored bool) {
	g := s.gate
	from, n := lp.From, lp.NSlots
	if anchored {
		from, n = s.st.Slot(), max(lp.From+lp.NSlots-s.st.Slot(), defaultGateWindow)
	}
	first := g.plan == nil
	retiredFrom, retired := g.from, g.took
	free, held := s.adhocLeftoverLocked(lp, from, n)
	g.plan, g.from, g.free, g.took = lp, from, free, make([]resource.Vector, n)
	g.rebases++
	folder, ok := s.cfg.Scheduler.(sched.AdHocFolder)
	if !ok {
		return
	}
	// Hand the retired window's admitted volume to the scheduler as
	// reservations (sched.AdHocFolder): the next batched replan routes them
	// beside the deadline work, so the plan keeps clear of capacity the gate
	// promised away wherever no deadline needs it.
	folder.FoldAdHocDrain(retiredFrom, retired)
	if first {
		// The scheduler's reservations are not durable. A restarted or
		// promoted RM retires no window here, yet the ad-hoc jobs it
		// recovered were admitted against slots the planner no longer knows
		// are spoken for: re-seed them with the volume those jobs still
		// hold. Nothing is live on a fresh start, and the fold is a no-op.
		folder.FoldAdHocDrain(from, held)
	}
}

// adhocLeftoverLocked computes the per-slot free capacity the ad-hoc
// gate may admit against over [from, from+n): cluster capacity minus the
// live plan's allocations minus the undelivered volume of already-
// admitted ad-hoc jobs, and beside it that volume itself, held[i] at slot
// from+i. The plan covers only deadline jobs — admitted ad-hoc work holds
// no slots in it — so each live ad-hoc job's remaining demand is
// water-filled the way its admission was and subtracted, ensuring later
// admissions cannot double-book capacity an earlier admission still
// needs. Demand that fits nowhere in the window is simply unplaced: the
// profile is already exhausted there.
func (s *Server) adhocLeftoverLocked(lp *plan.Plan, from, n int64) (leftover, held []resource.Vector) {
	capacity := s.nodes.Capacity()
	leftover = make([]resource.Vector, n)
	held = make([]resource.Vector, n)
	for i := range leftover {
		leftover[i] = capacity
	}
	for _, j := range lp.Jobs { //det:unordered clamped subtractions of non-negative allocations commute
		for abs := max(j.Window.Rel, from); abs < min(j.Window.Dl, from+n); abs++ {
			leftover[abs-from] = leftover[abs-from].SubClamped(j.Alloc[abs-j.Window.Rel])
		}
	}
	var adhocIDs []string
	for id, j := range s.st.Jobs() {
		if j.Kind == sched.AdHocJob {
			adhocIDs = append(adhocIDs, id)
		}
	}
	sort.Strings(adhocIDs)
	takes := make([]resource.Vector, n)
	for _, id := range adhocIDs {
		j := s.st.Jobs()[id]
		waterFill(takes, leftover, j.Total.SubClamped(j.Delivered), j.ParallelCap)
		for i, v := range takes {
			leftover[i] = leftover[i].Sub(v)
			held[i] = held[i].Add(v)
		}
	}
	return leftover, held
}
