// Package core implements the FlowTime scheduler — the paper's primary
// contribution (§V): after workflow deadlines have been decomposed into
// per-job windows, deadline jobs are placed so that the normalized cluster
// usage skyline z[t][r]/C[t][r] is lexicographically minimal (Eq. 1–5),
// so ad-hoc jobs arriving at any time find the most leftover capacity
// possible and start immediately.
//
// The scheduler is event-driven (paper §III): it rebuilds its multi-slot
// plan whenever the plan goes stale — a job arrived, finished early or
// late, or was blocked where the plan expected it to run — and serves
// per-slot grants from the plan otherwise. On-schedule completions do not
// trigger replans: the remaining plan is still optimal.
//
// Pipeline per replan, independently per resource kind (the formulation's
// kinds share no variables or constraints, so the lexicographic optimum
// decomposes). Stage 2 of the paper is a totally unimodular
// transportation problem per kind (Lemma 2), so it is solved as one: by
// exact parametric max-flow on the job→slot network (internal/flow), not
// by a general LP.
//
//  1. Effective windows: each job's decomposed window, intersected with
//     [now, horizon) and tightened by the deadline slack (§VII-B.2);
//     overdue jobs get an as-soon-as-possible window.
//  2. Stage A, feasibility: the max flow at raw cluster capacity, the
//     deadline jobs let in earliest deadline first and, after all of them,
//     one one-slot pseudo-job per slot for the capacity the ad-hoc gate has
//     promised away (sched.AdHocFolder). The deadline jobs route as if no
//     reservation existed; their deficiency is the demand that cannot fit
//     within windows, split over the jobs latest in EDF order and deferred
//     to the overdue path — it will miss, as it must, but still completes.
//     If only the slack makes the instance short, the slack is dropped for
//     this plan. A reservation that cannot route beside the deadline work
//     yields: what survives is the most the known deadlines can afford.
//  3. Stage B, the skyline: the lexicographic min-max flow of the deadline
//     demand that fits plus the surviving reservations — the paper's Eq. 1
//     objective, level by level, flattened around admitted ad-hoc work
//     wherever that costs no deadline.
//  4. Integral repair: the skyline's deadline share is converted into
//     integer per-slot grants by cumulative-rounded budgets under what the
//     surviving reservations leave and earliest-deadline-first
//     water-filling, plus a final sweep up to the hard cap. Grants are
//     integral and never exceed a job's demand, its parallel cap or the
//     slot's capacity. The water-fill is not exact under parallel caps, so
//     it can leave unplanned demand that stage A routed; that demand is
//     deferred like a shortfall and served by the overdue path. Reservations
//     are never part of the plan that is served, validated or published.
//
// The pipeline runs under a two-rung degradation ladder: when the flow
// planner cannot answer (an integer overflow on outsized inputs, an
// internal error, or even a panic), that kind is planned by the greedy
// EDF water-fill instead of failing the slot. Every plan is
// post-validated (allocations within windows, under caps, non-negative,
// no job planned more than its demand) before it is served; a plan that
// fails validation is rebuilt at the greedy rung. Assign therefore never
// surfaces a planner error: the worst case is a valid but less
// load-balanced plan, with the active level and trip reason reported
// through Degradation().
//
// Each slot's capacity is handed out in five passes (Assign): the plan's
// slices; overdue deadline jobs; demand beyond the plan (estimate
// revisions, best-effort jobs) of jobs whose window is open; ad-hoc jobs
// in arrival order — the paper's "schedule deadline work while minimally
// impacting ad-hoc jobs"; and last, whatever no ad-hoc job asked for, to
// any ready deadline job, earliest deadline first, whether or not the
// plan or its decomposed release says it should run yet, and what is
// still left to the jobs whose predecessors finish inside the slot
// (sched.JobState.ReadyOnConfirm), as offers. The plan stays
// as flat and late as the skyline makes it — it is what deadline work
// may claim ahead of ad-hoc work, not a ceiling — and the last pass makes
// the grants work-conserving: FlowTime never idles a core beside a
// runnable job, and work done early only lowers the demand the next
// replan flattens.
package core

import (
	"fmt"
	"sort"
	"time"

	"flowtime/internal/flow"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// Config tunes the FlowTime scheduler.
type Config struct {
	// Slack is the deadline slack (paper §VII-B.2): the planner is asked
	// to finish each job this much before its true deadline. Default 60s
	// (the paper's empirical setting); zero disables.
	Slack time.Duration
	// MaxLexRounds caps the skyline levels solved per replan and per
	// resource kind (0 = exact). The top MaxLexRounds levels — the
	// maximum is what ad-hoc jobs feel first — and the slots tight at
	// them are those of the exact optimum; the slots below take the loads
	// of the flow that proved the last level, all at or under it.
	MaxLexRounds int
	// StreamPlans queues, at every replan, the plan.Diff from the previous
	// revision to the new one for TakePlanDiffs. The plan itself is kept
	// and served (LivePlan) either way. Off by default: without a consumer
	// draining TakePlanDiffs the pending list would grow without bound.
	// Only the whole-path benchmark's traced pass (bench/trace.go), which
	// compiles against it, and this package's plan-stream tests set it;
	// nothing reads a diff back, and the field goes with that wrapper.
	StreamPlans bool
}

// DefaultConfig returns the paper's settings: 60s slack, bounded rounds.
func DefaultConfig() Config {
	return Config{Slack: 60 * time.Second, MaxLexRounds: 4}
}

// FlowTime is the paper's scheduler. Create with New; it implements
// sched.Scheduler. Assign must be called once per slot (the plan cursor
// advances with ctx.Now relative to the slot the plan was built at).
type FlowTime struct {
	cfg Config

	// live is the current plan: every replan builds the next revision, and
	// Assign serves its slices. nil before the first replan. pending holds
	// the diffs emitted since the last TakePlanDiffs drain (StreamPlans).
	live    *plan.Plan
	pending []*plan.Diff

	load []resource.Vector // planned deadline load per slot offset of the current plan
	// planRemaining tracks, per job, how much planned allocation lies at or
	// after the current slot; it is the staleness detector.
	planRemaining map[string]resource.Vector
	// deferred records demand the last replan could not fit within its
	// window (genuine shortfall); it does not count as staleness until
	// deferredRetry, bounding the replan rate under overload.
	deferred      map[string]resource.Vector
	deferredRetry int64
	// planCap records the capacity the plan assumed per slot, so live
	// capacity changes (node loss, maintenance dips) invalidate the plan.
	planCap []resource.Vector

	// adhocReserved[i] is the volume the ad-hoc admission gate has admitted
	// against the leftover of absolute slot adhocFrom+i
	// (sched.AdHocFolder). A replan routes it as one-slot jobs after every
	// deadline job: the skyline is flattened around it where the deadline
	// work fits beside it, and it yields where that work does not.
	adhocFrom     int64
	adhocReserved []resource.Vector
	// adhocStale marks undrained gate admissions since the last replan;
	// it is a quality (batched) staleness signal, never an urgent one.
	adhocStale bool

	stats   Stats
	degrade sched.DegradationStatus

	// planFault is a test seam: when set it runs at the top of every call
	// into the flow planner, and an error or panic from it is handled as
	// the planner's own.
	planFault func(resource.Kind) error
}

// deferredRetryInterval is how many slots to wait before re-attempting to
// place deferred (shortfall) demand.
const deferredRetryInterval = 10

// planSlots bounds the planning lookahead: jobs whose window opens
// planSlots or more slots in the future are left out of the current plan
// and picked up by the replan their release triggers. The paper's
// evaluation plans 100 slots (1000 s) ahead (§VII, Fig. 7).
const planSlots = 120

// Stats reports scheduler telemetry.
type Stats struct {
	// Replans is the number of plan rebuilds.
	Replans int
	// LPRounds is the total number of skyline levels solved (the name
	// predates the flow planner; reports key on it).
	LPRounds int
	// StageASkipped counts replan-kind passes where stage A routed every
	// unit of demand, so there was no shortfall to split.
	StageASkipped int
	// ShortfallEvents counts replans where some demand could not fit
	// within its deadline window.
	ShortfallEvents int
	// SlackDropped counts replans where the deadline slack made the
	// instance jointly infeasible and was dropped for that plan (the
	// paper's slack is a preference, not a cause for deadline misses).
	SlackDropped int
	// AdHocFolds counts FoldAdHocDrain calls that carried non-zero
	// admitted volume (sched.AdHocFolder).
	AdHocFolds int
	// AdHocYields counts replans in which a reservation gave way to
	// deadline work — stage A could not route it beside the deadline jobs
	// at raw capacity — and AdHocYielded is the volume that gave way. A
	// replan whose deadline work fits beside every reservation counts in
	// neither.
	AdHocYields  int
	AdHocYielded resource.Vector
	// Backfills counts slots in which Assign's last pass handed capacity
	// nothing else wanted to a ready deadline job beyond its plan, or
	// offered it to a job ready on confirm, and Backfilled is the volume
	// handed out that way.
	Backfills  int
	Backfilled resource.Vector
	// LP aggregates the planner's work across all replans.
	LP PlannerStats
	// Last is the replan the last Assign ran, the zero value when it ran
	// none (sched.ReplanReporter).
	Last sched.ReplanStats
}

// PlannerStats is what the flow planner cost. The field names are the
// ones the simplex reported when it sat here, so reports that key on
// them keep their shape; each comment says what the field counts now.
type PlannerStats struct {
	// Duration is the wall time spent inside internal/flow, stages A and
	// B together.
	Duration time.Duration
	// Pivots is the number of augmenting paths pushed.
	Pivots int
	// ColdStarts counts max-flow computations started from a zero flow,
	// WarmStarts those resumed from the previous Newton step's flow.
	ColdStarts int
	WarmStarts int
	// Refactors is always zero: a max-flow has no basis to refactorize.
	Refactors int
}

var _ sched.Scheduler = (*FlowTime)(nil)

// New returns a FlowTime scheduler.
func New(cfg Config) *FlowTime {
	return &FlowTime{cfg: cfg}
}

// Name implements sched.Scheduler.
func (*FlowTime) Name() string { return "FlowTime" }

// Stats returns accumulated telemetry.
func (f *FlowTime) Stats() Stats { return f.stats }

// Degradation implements sched.DegradationReporter: the ladder level the
// current plan was built at, the last trip reason, and fallback counters.
func (f *FlowTime) Degradation() sched.DegradationStatus { return f.degrade }

var _ sched.DegradationReporter = (*FlowTime)(nil)

// LastReplan implements sched.ReplanReporter.
func (f *FlowTime) LastReplan() sched.ReplanStats { return f.stats.Last }

var _ sched.ReplanReporter = (*FlowTime)(nil)

var _ sched.PlanStreamer = (*FlowTime)(nil)

// LivePlan implements sched.PlanStreamer: the published plan itself, not
// a copy, which publish never changes. Before the first replan it is the
// empty revision-0 plan.
func (f *FlowTime) LivePlan() *plan.Plan {
	if f.live == nil {
		return plan.Empty()
	}
	return f.live
}

// TakePlanDiffs returns the diffs emitted since the last drain, oldest
// first (StreamPlans). It is kept, like StreamPlans, only for the
// benchmark's traced pass to compile against.
func (f *FlowTime) TakePlanDiffs() []*plan.Diff {
	out := f.pending
	f.pending = nil
	return out
}

var _ sched.AdHocFolder = (*FlowTime)(nil)

// FoldAdHocDrain implements sched.AdHocFolder: the admission gate retired
// a window and reports the volume it admitted per slot. The
// volumes accumulate as per-slot reservations that every later replan
// routes beside the deadline work, last (see stageA), so the admitted
// ad-hoc work reaches the planner at the next batched quality replan —
// the gate never forces an urgent full rebuild — and the plan keeps clear
// of the capacity the gate promised away unless a deadline needs it.
func (f *FlowTime) FoldAdHocDrain(from int64, consumed []resource.Vector) {
	lo, hi := 0, len(consumed)
	for lo < hi && consumed[lo].IsZero() {
		lo++
	}
	for hi > lo && consumed[hi-1].IsZero() {
		hi--
	}
	if lo == hi {
		return
	}
	from, consumed = from+int64(lo), consumed[lo:hi]
	if len(f.adhocReserved) == 0 {
		f.adhocFrom = from
		f.adhocReserved = append([]resource.Vector(nil), consumed...)
	} else {
		// Drains are cumulative (each reports one window's admissions):
		// overlapping slots add.
		start, end := f.adhocFrom, f.adhocFrom+int64(len(f.adhocReserved))
		if from < start {
			start = from
		}
		if e := from + int64(len(consumed)); e > end {
			end = e
		}
		merged := make([]resource.Vector, end-start)
		copy(merged[f.adhocFrom-start:], f.adhocReserved)
		for i, v := range consumed {
			j := from + int64(i) - start
			merged[j] = merged[j].Add(v)
		}
		f.adhocFrom, f.adhocReserved = start, merged
	}
	f.adhocStale = true
	f.stats.AdHocFolds++
}

// adhocReservedAt returns the capacity reserved for gate-admitted ad-hoc
// work at absolute slot abs (zero outside the reserved range).
func (f *FlowTime) adhocReservedAt(abs int64) resource.Vector {
	if i := abs - f.adhocFrom; i >= 0 && i < int64(len(f.adhocReserved)) {
		return f.adhocReserved[i]
	}
	return resource.Vector{}
}

// trimAdHocReserved ages out reservations for slots that have passed —
// the admitted volume they covered has been delivered (or lapsed) and
// must not constrain future plans.
func (f *FlowTime) trimAdHocReserved(now int64) {
	cut := now - f.adhocFrom
	if cut <= 0 || len(f.adhocReserved) == 0 {
		return
	}
	if cut >= int64(len(f.adhocReserved)) {
		f.adhocFrom, f.adhocReserved = 0, nil
		return
	}
	f.adhocReserved = append(f.adhocReserved[:0:0], f.adhocReserved[cut:]...)
	f.adhocFrom = now
}

// publish makes a replan's output the live plan, one revision past the
// last, and when streaming queues the diff between the two. The plan is
// immutable from here on: LivePlan hands it out as it is.
func (f *FlowTime) publish(next *plan.Plan) {
	prev := f.live
	if prev == nil {
		prev = plan.Empty()
	}
	next.Rev = prev.Rev + 1
	if f.cfg.StreamPlans {
		f.pending = append(f.pending, plan.Compute(prev, next))
	}
	f.live = next
}

// qualityReplanInterval rate-limits replans whose only purpose is to
// reflow freed capacity (early completions): correctness never depends on
// them, so they are batched to at most one per interval.
const qualityReplanInterval = 5

// Assign implements sched.Scheduler: five passes over the slot's capacity —
// plan, overdue, backlog, ad-hoc, idle. The first three are deadline
// work's claims and come before ad-hoc work; the last hands deadline work
// what ad-hoc work left, so the grants are work-conserving: no kind has
// capacity left beside a ready job that asked for more of it.
func (f *FlowTime) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	f.stats.Last = sched.ReplanStats{}
	cause, quality := f.planNeeds(ctx)
	if cause == "" && quality && ctx.Now >= f.live.From+qualityReplanInterval {
		cause = sched.ReplanQuality
	}
	if cause != "" {
		f.replan(ctx, cause)
	}
	avail := ctx.Cluster.CapAt(ctx.Now)
	grants := make(map[string]resource.Vector, len(ctx.Jobs))

	// Plan. The planned slice is consumed from planRemaining whether or not
	// the job could take it — a blocked job makes the plan stale, which
	// triggers a replan on the next slot.
	for _, j := range ctx.Jobs {
		if j.Kind != sched.DeadlineJob {
			continue
		}
		slice := f.live.AllocAt(j.ID, ctx.Now)
		if slice.IsZero() {
			continue
		}
		f.planRemaining[j.ID] = f.planRemaining[j.ID].SubClamped(slice)
		if !j.Ready || j.Request.IsZero() {
			continue
		}
		want := slice.Min(j.Request)
		if g := grantIn(want, &avail); !g.IsZero() {
			grants[j.ID] = g
		}
	}

	// The other deadline passes serve the same candidates in the same
	// order and differ only in what a job may want; serve caps it by what
	// the job's Request still lacks after this slot's earlier grants and
	// returns the volume granted.
	ready, onConfirm := deadlineEDF(ctx.Jobs)
	serve := func(jobs []sched.JobState, want func(sched.JobState) resource.Vector) (total resource.Vector) {
		for _, j := range jobs {
			got := grants[j.ID]
			if g := grantIn(want(j).Min(j.Request.SubClamped(got)), &avail); !g.IsZero() {
				grants[j.ID] = got.Add(g)
				total = total.Add(g)
			}
		}
		return total
	}

	// Overdue: a job whose deadline has passed runs flat out.
	serve(ready, func(j sched.JobState) resource.Vector {
		if int64(j.Deadline/ctx.Cluster.SlotDur) > ctx.Now {
			return resource.Vector{}
		}
		return j.Request
	})

	// Backlog: demand beyond the plan (a job that outlived its estimate, a
	// best-effort job) runs ahead of ad-hoc work until the next quality
	// replan folds it into the skyline — what the job will have left after
	// this slot's grants, less what the plan holds after this slot. A job
	// whose window has not opened has no claim yet.
	serve(ready, func(j sched.JobState) resource.Vector {
		if int64(j.Release/ctx.Cluster.SlotDur) > ctx.Now {
			return resource.Vector{}
		}
		return j.EstRemaining.SubClamped(grants[j.ID]).SubClamped(f.planRemaining[j.ID]).SubClamped(f.deferred[j.ID])
	})

	// Ad-hoc jobs take all remaining capacity in arrival order (paper
	// §II-B: "the remaining resources can be used by the ad-hoc jobs").
	adhoc := make([]sched.JobState, 0, len(ctx.Jobs))
	for _, j := range ctx.Jobs {
		if j.Kind == sched.AdHocJob && j.Ready && !j.Request.IsZero() {
			adhoc = append(adhoc, j)
		}
	}
	sort.SliceStable(adhoc, func(a, b int) bool {
		if adhoc[a].Arrived != adhoc[b].Arrived {
			return adhoc[a].Arrived < adhoc[b].Arrived
		}
		return adhoc[a].ID < adhoc[b].ID
	})
	for _, j := range adhoc {
		if g := grantIn(j.Request, &avail); !g.IsZero() {
			grants[j.ID] = g
		}
	}

	// Idle: what no ad-hoc job asked for goes to any ready deadline job,
	// planned or not, released or not — the plan is a preference and a
	// decomposed Release a planning window, not a launch gate. What is
	// left after that is offered to the jobs that turn ready inside the
	// slot (ReadyOnConfirm). The pass comes after the ad-hoc queue and the
	// offers after every ready job, so neither shrinks another grant.
	request := func(j sched.JobState) resource.Vector { return j.Request }
	if idle := serve(ready, request).Add(serve(onConfirm, request)); !idle.IsZero() {
		f.stats.Backfills++
		f.stats.Backfilled = f.stats.Backfilled.Add(idle)
	}
	return grants, nil
}

// deadlineEDF returns the deadline jobs that can take a grant this slot
// (ready) and those that can be offered one (onConfirm), each earliest
// deadline first, ID as tie-break.
func deadlineEDF(jobs []sched.JobState) (ready, onConfirm []sched.JobState) {
	ready = make([]sched.JobState, 0, len(jobs))
	for _, j := range jobs {
		if j.Kind != sched.DeadlineJob || j.Request.IsZero() {
			continue
		}
		if j.Ready {
			ready = append(ready, j)
		} else if j.ReadyOnConfirm {
			onConfirm = append(onConfirm, j)
		}
	}
	for _, list := range [][]sched.JobState{ready, onConfirm} {
		sort.SliceStable(list, func(a, b int) bool {
			if list[a].Deadline != list[b].Deadline {
				return list[a].Deadline < list[b].Deadline
			}
			return list[a].ID < list[b].ID
		})
	}
	return ready, onConfirm
}

// planNeeds classifies why the current plan no longer matches reality.
// urgent, the cause of a replan that affects correctness, non-empty when
// there is no plan or a live deadline job with an open window is not in
// it (sched.ReplanUrgent), the capacity profile changed (ReplanCapacity),
// or deferred demand is due for a retry (ReplanDeferred). quality: planned
// work refers to a job that is gone, finished early or grew — capacity is
// worth reflowing, but the plan stays valid.
func (f *FlowTime) planNeeds(ctx sched.AssignContext) (urgent string, quality bool) {
	if f.live == nil {
		return sched.ReplanUrgent, false
	}
	if f.deferredRetry > 0 && ctx.Now >= f.deferredRetry {
		// Time to retry placing demand the last plan could not fit.
		return sched.ReplanDeferred, false
	}
	if off := ctx.Now - f.live.From; off >= 0 && off < int64(len(f.planCap)) {
		if ctx.Cluster.CapAt(ctx.Now) != f.planCap[off] {
			// The capacity profile changed under the plan (node loss or
			// recovery); the skyline must be re-flattened.
			return sched.ReplanCapacity, false
		}
	}
	live := make(map[string]bool, len(ctx.Jobs))
	for _, j := range ctx.Jobs {
		if j.Kind != sched.DeadlineJob || j.BestEffort {
			continue
		}
		if j.EstRemaining.IsZero() {
			continue
		}
		live[j.ID] = true
		rem := f.planRemaining[j.ID].Add(f.deferred[j.ID])
		if !j.EstRemaining.FitsIn(rem) {
			if !f.planKnown(j.ID) {
				if int64(j.Release/ctx.Cluster.SlotDur) > ctx.Now {
					// Beyond the planning lookahead: picked up by the
					// replan that fires when its release arrives.
					continue
				}
				// A new arrival with an open window needs a plan now.
				return sched.ReplanUrgent, quality
			}
			// A planned job revised its estimate upward (or a blocked slot
			// wasted its slice): the backlog stage in Assign feeds it from
			// leftover capacity immediately; folding it into the plan is a
			// quality matter.
			quality = true
		}
	}
	//det:unordered only ORs a flag over the entries
	for id, rem := range f.planRemaining {
		if !rem.IsZero() && !live[id] {
			quality = true
		}
	}
	if f.adhocStale {
		// Undrained gate admissions: correctness is unaffected (the gate
		// already holds that capacity), so fold them at the next batched
		// quality replan instead of forcing one now.
		quality = true
	}
	return "", quality
}

func (f *FlowTime) planKnown(id string) bool {
	_, ok := f.live.Jobs[id]
	return ok
}

func grantIn(request resource.Vector, avail *resource.Vector) resource.Vector {
	g := request.Min(*avail)
	*avail = avail.Sub(g)
	return g
}

// planJob is the per-job working state during a replan.
type planJob struct {
	state   sched.JobState
	relSlot int64 // inclusive, absolute
	dlSlot  int64 // exclusive, absolute
	// planIdx is the job's index in the kindProblem being built (-1 when
	// it demands nothing of that kind); scratch for stageA.
	planIdx int
}

// replan builds the next revision of the live plan with the per-kind flow
// pipeline under the degradation ladder. It cannot fail: any planner
// trouble steps that kind down to the greedy rung, and the resulting plan
// is checked (checkPlan) before it is served.
func (f *FlowTime) replan(ctx sched.AssignContext, cause string) {
	f.stats.Replans++
	f.stats.Last = sched.ReplanStats{Slot: ctx.Now, Cause: cause}
	f.trimAdHocReserved(ctx.Now)
	f.adhocStale = false
	f.planRemaining = make(map[string]resource.Vector)
	f.deferred = make(map[string]resource.Vector)
	f.deferredRetry = 0
	f.load = nil
	f.planCap = nil

	slackSlots := int64(0)
	if f.cfg.Slack > 0 {
		slackSlots = int64(f.cfg.Slack / ctx.Cluster.SlotDur)
	}

	jobs, order, nSlots := f.computeWindows(ctx, slackSlots)
	if len(jobs) == 0 {
		f.degrade.Level, f.degrade.Reason = sched.DegradeNone, ""
		// An empty plan is still a revision: the consumer must learn that
		// every previously planned job is gone.
		f.publish(&plan.Plan{From: ctx.Now})
		return
	}

	// Stage A, and with it the slack decision. Deadline slack is a
	// preference, not a feasibility constraint: if the slack-tightened
	// windows cannot jointly host the demand, plan against the true windows
	// instead (paper §VII-B.2 introduces slack to absorb estimation error,
	// not to manufacture misses). The verdict is the exact max-flow
	// deficiency; a planner error is no verdict and keeps the slack.
	probs := f.stageA(ctx, jobs, order, nSlots)
	if slackSlots > 0 && anyShort(probs) {
		f.stats.SlackDropped++
		jobs, order, nSlots = f.computeWindows(ctx, 0)
		probs = f.stageA(ctx, jobs, order, nSlots)
	}

	f.load = make([]resource.Vector, nSlots)
	f.planCap = make([]resource.Vector, nSlots)
	for t := int64(0); t < nSlots; t++ {
		f.planCap[t] = ctx.Cluster.CapAt(ctx.Now + t)
	}
	next := newPlan(jobs, ctx.Now, nSlots)

	level, reason := sched.DegradeNone, ""
	yieldedBefore := f.stats.AdHocYielded
	for _, p := range probs {
		lvl, why := f.replanKind(p, order, next)
		if lvl > level {
			level = lvl
		}
		if why != "" {
			reason = why
		}
	}
	if f.stats.AdHocYielded != yieldedBefore {
		f.stats.AdHocYields++
	}

	// Post-validate before the plan is served. An invalid plan — which the
	// pipeline should never produce — is rebuilt at the greedy rung, which
	// is valid by construction.
	if err := checkPlan(next, jobs, f.planCap); err != nil {
		f.degrade.InvalidPlans++
		level, reason = sched.DegradeGreedy, "plan validation: "+err.Error()
		next = f.rebuildGreedy(jobs, order, ctx.Now, nSlots)
		if err := checkPlan(next, jobs, f.planCap); err != nil {
			// Unreachable by construction; planning nothing is still safe —
			// every job is then served by the overdue/backlog stages.
			next = &plan.Plan{From: ctx.Now, NSlots: nSlots}
			reason = "greedy plan validation: " + err.Error()
		}
	}

	f.degrade.Level, f.degrade.Reason = level, reason
	if level == sched.DegradeGreedy {
		f.degrade.GreedyFallbacks++
	}

	anyDeferred := false
	//det:unordered writes one entry per key, read by key only
	for id, j := range next.Jobs {
		var total resource.Vector
		for _, g := range j.Alloc {
			total = total.Add(g)
		}
		f.planRemaining[id] = total
	}
	for _, pj := range jobs {
		if d := pj.state.EstRemaining.SubClamped(f.planRemaining[pj.state.ID]); !d.IsZero() {
			f.deferred[pj.state.ID] = d
			anyDeferred = true
		}
	}
	if anyDeferred {
		f.deferredRetry = ctx.Now + deferredRetryInterval
	}
	f.publish(next)
}

// newPlan returns an unpublished plan over [from, from+nSlots) holding
// every job with its effective window and an all-zero allocation row.
func newPlan(jobs []*planJob, from, nSlots int64) *plan.Plan {
	p := &plan.Plan{From: from, NSlots: nSlots, Jobs: make(map[string]plan.Job, len(jobs))}
	for _, pj := range jobs {
		p.Jobs[pj.state.ID] = plan.Job{
			Window: plan.Window{Rel: pj.relSlot, Dl: pj.dlSlot},
			Alloc:  make([]resource.Vector, nSlots),
		}
	}
	return p
}

// checkPlan is the post-validation a replan's plan passes before it is
// served: plan.Validate's shape, window and sign checks, then what only
// the replan knows — no grant exceeds the job's parallel cap, no job is
// granted more than its demand in total, and no slot's grants exceed
// caps, the capacity the plan assumed per slot offset.
func checkPlan(p *plan.Plan, jobs []*planJob, caps []resource.Vector) error {
	if err := p.Validate(); err != nil {
		return err
	}
	load := make([]resource.Vector, p.NSlots)
	for _, pj := range jobs {
		var total resource.Vector
		for off, g := range p.Jobs[pj.state.ID].Alloc {
			if !g.FitsIn(pj.state.ParallelCap) {
				return fmt.Errorf("job %q grant %v at slot %d exceeds parallel cap %v", pj.state.ID, g, p.From+int64(off), pj.state.ParallelCap)
			}
			total = total.Add(g)
			load[off] = load[off].Add(g)
		}
		if !total.FitsIn(pj.state.EstRemaining) {
			return fmt.Errorf("job %q allocated %v in total, more than its demand %v", pj.state.ID, total, pj.state.EstRemaining)
		}
	}
	for off, l := range load {
		if !l.FitsIn(caps[off]) {
			return fmt.Errorf("slot %d load %v exceeds capacity %v", p.From+int64(off), l, caps[off])
		}
	}
	return nil
}

// computeWindows collects live deadline jobs with their effective windows
// under the given slack, plus the shared EDF processing order and the plan
// length in slots.
func (f *FlowTime) computeWindows(ctx sched.AssignContext, slackSlots int64) ([]*planJob, []*planJob, int64) {
	jobs := make([]*planJob, 0, len(ctx.Jobs))
	maxDl := ctx.Now + 1
	for _, j := range ctx.Jobs {
		if j.Kind != sched.DeadlineJob || j.EstRemaining.IsZero() || j.BestEffort {
			// Best-effort jobs (infeasible decompositions) are excluded from
			// the joint plan; the backlog stage in Assign serves them from
			// leftover capacity ahead of ad-hoc work.
			continue
		}
		pj := &planJob{state: j}
		pj.relSlot = int64(j.Release / ctx.Cluster.SlotDur)
		if pj.relSlot < ctx.Now {
			pj.relSlot = ctx.Now
		}
		pj.dlSlot = int64(j.Deadline/ctx.Cluster.SlotDur) - slackSlots
		if pj.dlSlot <= pj.relSlot {
			pj.dlSlot = pj.relSlot + 1
		}
		if pj.dlSlot <= ctx.Now {
			// Overdue: finish as soon as possible.
			minS := j.MinSlots
			if minS < 1 {
				minS = 1
			}
			pj.relSlot, pj.dlSlot = ctx.Now, ctx.Now+minS
		}
		if pj.relSlot >= ctx.Now+planSlots {
			// Beyond the lookahead: planStale fires a replan when the
			// job's release arrives.
			continue
		}
		if pj.dlSlot > maxDl {
			maxDl = pj.dlSlot
		}
		jobs = append(jobs, pj)
	}
	if len(jobs) == 0 {
		return nil, nil, 0
	}

	horizon := maxDl
	if horizon > ctx.Cluster.Horizon {
		horizon = ctx.Cluster.Horizon
	}
	if horizon <= ctx.Now {
		horizon = ctx.Now + 1
	}
	for _, pj := range jobs {
		if pj.dlSlot > horizon {
			pj.dlSlot = horizon
		}
		if pj.relSlot >= pj.dlSlot {
			pj.relSlot = pj.dlSlot - 1
		}
	}

	order := make([]*planJob, len(jobs))
	copy(order, jobs)
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].dlSlot != order[b].dlSlot {
			return order[a].dlSlot < order[b].dlSlot
		}
		return order[a].state.ID < order[b].state.ID
	})
	return jobs, order, horizon - ctx.Now
}

// kindProblem is one resource kind's share of a replan in the flow
// planner's terms. Slot indices are plan offsets (absolute slot − now).
type kindProblem struct {
	kind resource.Kind
	caps []int64 // raw cluster capacity per offset
	// pjs are the jobs with demand of this kind, in the replan's job-slice
	// order. jobs are the same jobs as the planner sees them, followed by
	// one one-slot pseudo-job per slot the gate holds a reservation on
	// (demand and cap R_t, window [t, t+1)); order lists all of them as
	// indices, the deadline jobs earliest deadline first, then the
	// reservations in slot order.
	pjs   []*planJob
	jobs  []flow.Job
	order []int
	// short[i] is the demand of jobs[i] that stage A could not route; err
	// is set instead when the planner failed. Reservations route last and
	// stage A never takes flow back from a job it has let in, so the rows of
	// the deadline jobs are their shortfall at raw capacity, and what a
	// reservation keeps, R'_t = R_t − short, is what the known deadlines
	// can afford to leave it.
	short []int64
	err   error
}

// reserved returns R'_t per slot offset — the reservations as stage A
// left them — and the volume that gave way to deadline work.
func (p *kindProblem) reserved() (kept []int64, yielded int64) {
	kept = make([]int64, len(p.caps))
	for i := len(p.pjs); i < len(p.jobs); i++ {
		kept[p.jobs[i].Rel] = p.jobs[i].Demand - p.short[i]
		yielded += p.short[i]
	}
	return kept, yielded
}

// stageA builds every kind's problem over the given windows and runs the
// planner's stage A on it: the max flow at raw cluster capacity, the
// deadline jobs let in earliest deadline first — so their deficiency lands
// on the latest deadlines — and the gate's reservations after all of
// them, so a promise to ad-hoc work absorbs a deficiency before any
// deadline does and never causes one. Kinds no deadline job demands are
// left out.
func (f *FlowTime) stageA(ctx sched.AssignContext, jobs, order []*planJob, nSlots int64) []*kindProblem {
	var probs []*kindProblem
	for _, kind := range resource.Kinds() {
		p := &kindProblem{kind: kind}
		for _, pj := range jobs {
			pj.planIdx = -1
			if d := pj.state.EstRemaining.Get(kind); d > 0 {
				pj.planIdx = len(p.jobs)
				p.pjs = append(p.pjs, pj)
				p.jobs = append(p.jobs, flow.Job{
					Demand: d,
					Rel:    pj.relSlot - ctx.Now,
					Dl:     pj.dlSlot - ctx.Now,
					Cap:    pj.state.ParallelCap.Get(kind),
				})
			}
		}
		if len(p.jobs) == 0 {
			continue
		}
		for _, pj := range order {
			if pj.planIdx >= 0 {
				p.order = append(p.order, pj.planIdx)
			}
		}
		p.caps = make([]int64, nSlots)
		for t := range p.caps {
			abs := ctx.Now + int64(t)
			p.caps[t] = ctx.Cluster.CapAt(abs).Get(kind)
			if r := min(f.adhocReservedAt(abs).Get(kind), p.caps[t]); r > 0 {
				p.order = append(p.order, len(p.jobs))
				p.jobs = append(p.jobs, flow.Job{Demand: r, Rel: int64(t), Dl: int64(t) + 1, Cap: r})
			}
		}
		p.err = f.runPlanner(kind, &f.stats.Last.StageA, func() (flow.Work, error) {
			r, err := flow.Shortfall(p.caps, p.jobs, p.order)
			if err != nil {
				return flow.Work{}, err
			}
			p.short = r.Short
			return r.Work, nil
		})
		probs = append(probs, p)
	}
	return probs
}

// isShort reports whether stage A left any deadline demand of this kind
// unrouted. A reservation that came up short is not a shortfall: it
// yielded.
func (p *kindProblem) isShort() bool {
	if p.err != nil {
		return false // no verdict
	}
	for _, s := range p.short[:len(p.pjs)] {
		if s > 0 {
			return true
		}
	}
	return false
}

// anyShort reports whether stage A left any deadline demand of any kind
// unrouted.
func anyShort(probs []*kindProblem) bool {
	for _, p := range probs {
		if p.isShort() {
			return true
		}
	}
	return false
}

// runPlanner makes one call into the flow planner, charges its wall time
// to the stats and to *stage, one of the last replan's stages, and its work
// to the stats and to the last replan's kind, and turns a panic into an
// error so a planner bug degrades the plan instead of killing the
// scheduling slot.
func (f *FlowTime) runPlanner(kind resource.Kind, stage *time.Duration, call func() (flow.Work, error)) (err error) {
	var w flow.Work
	d := timed(func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("planner panic: %v", r)
			}
		}()
		if f.planFault != nil {
			if err = f.planFault(kind); err != nil {
				return
			}
		}
		w, err = call()
	})
	f.stats.LP.Duration += d
	*stage += d
	last := &f.stats.Last.Work[int(kind)-1] // kinds start at one
	last.MaxFlows += w.MaxFlows
	last.Resumed += w.Resumed
	last.Augmentations += w.Augmentations
	last.ArcsScanned += w.ArcsScanned
	f.stats.LP.Pivots += w.Augmentations
	f.stats.LP.ColdStarts += w.MaxFlows
	f.stats.LP.WarmStarts += w.Resumed
	f.degrade.LPColdStarts += int64(w.MaxFlows)
	f.degrade.LPWarmStarts += int64(w.Resumed)
	return err
}

// timed runs call and returns its wall time: the one place the scheduler
// reads the clock, for its stats and never for a decision.
func timed(call func()) time.Duration {
	start := time.Now()
	call()
	return time.Since(start)
}

// replanKind finishes one kind's pipeline — skyline and repair on top of
// the stage A result in p — and writes integral grants into next.
// Planner failures never propagate: the kind is planned at the greedy
// rung instead, and the rung used plus the trip reason (if any) are
// returned.
func (f *FlowTime) replanKind(p *kindProblem, order []*planJob, next *plan.Plan) (sched.DegradeLevel, string) {
	kind, nSlots := p.kind, next.NSlots
	demand := make(map[*planJob]int64, len(p.pjs))
	for i, pj := range p.pjs {
		demand[pj] = p.jobs[i].Demand
	}

	// Stage B: the lexicographic min-max skyline of the demand stage A
	// could route — the deadline demand that fits plus the reservations
	// that survived, which are jointly feasible at hard capacity, so the
	// skyline is flattened around admitted ad-hoc work wherever that costs
	// no deadline and no level exceeds 1. Without a trustworthy shortfall
	// split any skyline would be built on demand that may not fit, so a
	// stage A failure skips it.
	stage, err := "stage A", p.err
	var sky *flow.Skyline
	var kept []int64
	if err == nil {
		fits := append([]flow.Job(nil), p.jobs...)
		for i, s := range p.short {
			fits[i].Demand -= s
		}
		if p.isShort() {
			f.stats.ShortfallEvents++
		} else {
			f.stats.StageASkipped++
		}
		var yielded int64
		kept, yielded = p.reserved()
		f.stats.AdHocYielded = f.stats.AdHocYielded.With(kind, f.stats.AdHocYielded.Get(kind)+yielded)
		stage = "stage B"
		err = f.runPlanner(kind, &f.stats.Last.StageB, func() (w flow.Work, err error) {
			if sky, err = flow.LexMinMax(p.caps, fits, f.cfg.MaxLexRounds); err != nil {
				return w, err
			}
			return sky.Work, nil
		})
		if err == nil {
			f.stats.LPRounds += len(sky.Levels)
		}
	}
	if err != nil {
		// Bottom rung: deterministic EDF water-fill under hard caps. No
		// failure mode; whatever cannot fit in-window is deferred and
		// served by the overdue path, exactly like a shortfall.
		f.greedyPlanKind(kind, order, demand, next)
		return sched.DegradeGreedy, fmt.Sprintf("%v %s: %v", kind, stage, err)
	}

	// Integral repair: budgets by cumulative rounding of the skyline's
	// deadline share under what the surviving reservations leave, EDF
	// water-fill within budgets, then a sweep up to the hard cap.
	remaining := demand
	for i, pj := range p.pjs {
		remaining[pj] -= p.short[i]
	}
	f.stats.Last.Repair += timed(func() {
		cum := 0.0
		budgetUsed := int64(0)
		for t := int64(0); t < nSlots; t++ {
			cum += sky.Load[t] - float64(kept[t])
			budget := int64(cum+0.5) - budgetUsed
			if c := p.caps[t] - kept[t]; budget > c {
				budget = c
			}
			budgetUsed += f.fillSlot(order, remaining, next, kind, t, budget)
		}
		for t := int64(0); t < nSlots; t++ {
			f.fillSlot(order, remaining, next, kind, t, p.caps[t]-f.load[t].Get(kind))
		}
	})
	// Any demand still left could not fit in windows at all; it is served
	// by the overdue path at run time.
	return sched.DegradeNone, ""
}

// greedyPlanKind is the ladder's bottom rung for one kind: EDF water-fill
// of the full demand under hard caps, honoring load already placed.
func (f *FlowTime) greedyPlanKind(kind resource.Kind, order []*planJob, demand map[*planJob]int64, next *plan.Plan) {
	remaining := make(map[*planJob]int64, len(demand))
	//det:unordered copies the map
	for pj, d := range demand {
		remaining[pj] = d
	}
	for t := int64(0); t < next.NSlots; t++ {
		f.fillSlot(order, remaining, next, kind, t, f.planCap[t].Get(kind)-f.load[t].Get(kind))
	}
}

// rebuildGreedy discards all placed allocation and rebuilds the whole
// plan at the greedy rung (used when post-validation rejects a plan).
func (f *FlowTime) rebuildGreedy(jobs, order []*planJob, from, nSlots int64) *plan.Plan {
	f.load = make([]resource.Vector, nSlots)
	next := newPlan(jobs, from, nSlots)
	for _, kind := range resource.Kinds() {
		demand := make(map[*planJob]int64, len(jobs))
		for _, pj := range jobs {
			if d := pj.state.EstRemaining.Get(kind); d > 0 {
				demand[pj] = d
			}
		}
		if len(demand) == 0 {
			continue
		}
		f.greedyPlanKind(kind, order, demand, next)
	}
	return next
}

// fillSlot grants up to budget units of kind at slot offset t of next
// to jobs in EDF order whose windows cover the slot, updating remaining,
// next's allocation rows and the load skyline. Returns units granted.
// order is sorted by deadline, so the windows closed by the slot are a
// prefix of it, which the sweep starts past.
func (f *FlowTime) fillSlot(order []*planJob, remaining map[*planJob]int64, next *plan.Plan, kind resource.Kind, t, budget int64) int64 {
	if budget <= 0 {
		return 0
	}
	granted := int64(0)
	abs := next.From + t
	open := sort.Search(len(order), func(i int) bool { return order[i].dlSlot > abs })
	for _, pj := range order[open:] {
		rem := remaining[pj]
		if rem <= 0 || abs < pj.relSlot || abs >= pj.dlSlot {
			continue
		}
		slots := next.Jobs[pj.state.ID].Alloc
		have := slots[t].Get(kind)
		g := pj.state.ParallelCap.Get(kind) - have
		if g > rem {
			g = rem
		}
		if g > budget-granted {
			g = budget - granted
		}
		if g <= 0 {
			continue
		}
		slots[t] = slots[t].With(kind, have+g)
		remaining[pj] = rem - g
		f.load[t] = f.load[t].With(kind, f.load[t].Get(kind)+g)
		granted += g
		if granted >= budget {
			break
		}
	}
	return granted
}
