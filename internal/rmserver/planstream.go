// Plan-diff streaming: when the configured scheduler implements
// sched.PlanStreamer, the RM maintains a durable *live plan* — the
// scheduler's multi-slot plan, reconstructed purely from the diffs the
// scheduler emits. Each diff is applied transactionally (plan.Apply is
// pure: the base plan is never mutated, a failed apply changes nothing)
// and journaled as one WAL record through the same log every other
// mutation uses, so the plan recovers after a crash and ships to the
// warm-standby follower with no extra machinery.
//
// Revision fencing: diffs chain BaseRev -> NewRev. When the chain breaks
// — typically the first replan after a recovery, when the restarted
// scheduler's revision counter restarts at zero while the recovered
// live plan is at the pre-crash revision — the RM refuses the diff and
// falls back to a wholesale *rebase*: it journals the scheduler's full
// live plan and counts the incident in FaultCounters.PlanRebases. A
// rebase is the loud, journaled escape hatch; a silently half-applied
// diff is impossible by construction.
//
// The live plan also feeds the lock-free ad-hoc admission gate
// (internal/adhoc): after every plan change the RM republishes the
// plan's leftover capacity profile to the queue, so ad-hoc submissions
// are admitted or rejected in O(window) against real slack without
// waking the planner.
package rmserver

import (
	"fmt"
	"sort"

	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// defaultGateWindow bounds the leftover profile published to the ad-hoc
// gate when the live plan is empty (no deadline jobs planned): the whole
// cluster is slack, but the queue still needs a finite window to charge.
const defaultGateWindow = 64

// livePlanLocked returns the server's live plan, never nil.
func (s *Server) livePlanLocked() *plan.Plan {
	if s.livePlan == nil {
		s.livePlan = plan.Empty()
	}
	return s.livePlan
}

// streamPlansLocked drains the scheduler's pending plan diffs, applies
// each to the live plan, and journals it. On a broken revision chain it
// rebases wholesale from the scheduler's live plan instead (see the
// package comment above). The caller's commit of s.journaled covers
// every record appended here.
func (s *Server) streamPlansLocked() error {
	ps, ok := s.cfg.Scheduler.(sched.PlanStreamer)
	if !ok {
		return nil
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, d := range ps.TakePlanDiffs() {
		next, err := plan.Apply(s.livePlanLocked(), d)
		if err != nil {
			// Chain broken (stale base after a recovery, or a malformed
			// diff): refuse it loudly and rebase from the authoritative
			// plan. LivePlan already includes every pending diff, so the
			// rest of this batch is subsumed.
			note(s.rebasePlanLocked(ps.LivePlan()))
			break
		}
		s.livePlan = next
		s.faults.PlanDiffsApplied++
		_, jerr := s.journalLocked(walRecord{PlanDiff: &recPlanDiff{Diff: d}})
		note(jerr)
	}
	s.rebaseAdHocLocked()
	return firstErr
}

// rebasePlanLocked replaces the live plan wholesale with the
// scheduler's, journaling the full plan as one record whose commit
// rides the caller's.
func (s *Server) rebasePlanLocked(lp *plan.Plan) error {
	s.livePlan = lp
	s.faults.PlanRebases++
	_, err := s.journalLocked(walRecord{PlanRebase: &recPlanRebase{Plan: lp}})
	return err
}

// applyPlanDiffRecordLocked replays one journaled plan diff. Replay is
// idempotent — a diff at or below the live revision is skipped — but a
// revision gap is corrupt history and fails loudly rather than leaving
// a plan that silently diverges from what the primary journaled.
func (s *Server) applyPlanDiffRecordLocked(r *recPlanDiff) error {
	d := r.Diff // decoded and validated by the record codec
	base := s.livePlanLocked()
	if d.NewRev <= base.Rev {
		return nil // idempotent replay
	}
	if d.BaseRev != base.Rev {
		return fmt.Errorf("plan diff %d->%d does not chain to live revision %d", d.BaseRev, d.NewRev, base.Rev)
	}
	next, err := plan.Apply(base, d)
	if err != nil {
		return fmt.Errorf("plan diff %d->%d: %w", d.BaseRev, d.NewRev, err)
	}
	s.livePlan = next
	s.faults.PlanDiffsApplied++
	return nil
}

// applyPlanRebaseRecordLocked replays one journaled wholesale rebase.
func (s *Server) applyPlanRebaseRecordLocked(r *recPlanRebase) {
	s.livePlan = r.Plan // decoded and validated by the record codec
	s.faults.PlanRebases++
}

// rebaseAdHocLocked republishes the live plan's leftover profile to the
// ad-hoc admission queue. A no-op without the gate, and when the queue
// already holds the current revision (the plan did not change).
func (s *Server) rebaseAdHocLocked() {
	if s.adhocQ == nil {
		return
	}
	lp := s.livePlanLocked()
	if lp.Rev == 0 || s.adhocQ.Rev() == lp.Rev {
		return
	}
	from, n := lp.From, lp.NSlots
	if n == 0 {
		// Empty plan (no deadline jobs): the whole cluster is leftover
		// over a default window anchored at the current slot.
		from, n = s.slot, defaultGateWindow
		if s.cfg.Horizon < n {
			n = s.cfg.Horizon
		}
	}
	first := s.adhocQ.Rev() < 0
	leftover, held := s.adhocLeftoverLocked(lp, from, n)
	drain := s.adhocQ.Rebase(lp.Rev, from, leftover)
	folder, ok := s.cfg.Scheduler.(sched.AdHocFolder)
	if !ok {
		return
	}
	// Hand the retired epoch's admitted volume to the scheduler as
	// reservations (sched.AdHocFolder): the next batched replan routes them
	// beside the deadline work, so the plan keeps clear of capacity the gate
	// promised away wherever no deadline needs it.
	folder.FoldAdHocDrain(drain.From, drain.Consumed)
	if first {
		// The scheduler's reservations are not durable. A restarted or
		// promoted RM retires an empty epoch here, yet the ad-hoc jobs it
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
// water-filled front-to-back (honoring its parallel cap) and subtracted,
// ensuring later admissions cannot double-book capacity an earlier
// admission still needs. Demand that fits nowhere in the window is simply
// unplaced: the profile is already exhausted there.
func (s *Server) adhocLeftoverLocked(lp *plan.Plan, from, n int64) (leftover, held []resource.Vector) {
	capacity := s.totalCapacityLocked()
	leftover = make([]resource.Vector, n)
	held = make([]resource.Vector, n)
	for i := range leftover {
		leftover[i] = capacity
	}
	for id := range lp.Jobs {
		for i := int64(0); i < n; i++ {
			leftover[i] = leftover[i].SubClamped(lp.AllocAt(id, from+i))
		}
	}
	var adhocIDs []string
	for id, j := range s.jobs {
		if j.kind == sched.AdHocJob {
			adhocIDs = append(adhocIDs, id)
		}
	}
	sort.Strings(adhocIDs)
	for _, id := range adhocIDs {
		j := s.jobs[id]
		rem := j.total.SubClamped(j.delivered)
		for ki := range resource.Kinds() {
			need := rem[ki]
			perSlot := j.parallelCap[ki]
			for i := int64(0); i < n && need > 0; i++ {
				take := need
				if perSlot > 0 && take > perSlot {
					take = perSlot
				}
				if free := leftover[i][ki]; take > free {
					take = free
				}
				leftover[i][ki] -= take
				held[i][ki] += take
				need -= take
			}
		}
	}
	return leftover, held
}
