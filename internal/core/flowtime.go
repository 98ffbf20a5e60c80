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
//  1. Effective windows, one set per replan: each job's decomposed window,
//     intersected with [now, horizon), with two deadlines — its true one and
//     the one the deadline slack (§VII-B.2) sets, floored at one slot past
//     the release, so the slack's window is a prefix of the true one. A job
//     whose window has closed is planned in [now, now+1), and what does not
//     fit there is deferred to the overdue pass.
//  2. Stage A, feasibility: the max flow at raw cluster capacity, the
//     deadline jobs let in earliest deadline first and, after all of them,
//     one one-slot pseudo-job per slot for the capacity the ad-hoc gate has
//     promised away (sched.AdHocFolder). The deadline jobs route as if no
//     reservation existed; their deficiency is the demand that cannot fit
//     within windows, split over the jobs latest in EDF order and deferred
//     to the overdue path — it will miss, as it must, but still completes.
//     Each kind's job→slot network is laid out once, on the true windows,
//     and the slack closes each job's arcs past its slack deadline. If only
//     the slack makes the instance short, the slack is dropped for this
//     plan: the same networks are routed again with every arc open. A
//     reservation that cannot route beside the deadline work yields: what
//     survives is the most the known deadlines can afford.
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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
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
	// StreamPlans queues, at every replan, the plan.Diff from the previous
	// revision to the new one for TakePlanDiffs. The plan itself is kept
	// and served (LivePlan) either way. Off by default: without a consumer
	// draining TakePlanDiffs the pending list would grow without bound.
	// Only the whole-path benchmark's traced pass (bench/trace.go), which
	// compiles against it, and this package's plan-stream tests set it;
	// nothing reads a diff back, and the field goes with that wrapper.
	StreamPlans bool
}

// DefaultConfig returns the paper's settings: 60s slack.
func DefaultConfig() Config {
	return Config{Slack: 60 * time.Second}
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

	// planRemaining tracks, per job, how much planned allocation lies at or
	// after the current slot; it is the staleness detector.
	planRemaining map[string]resource.Vector
	// deferred records demand the last replan could not fit within its
	// window (genuine shortfall); it does not count as staleness until the
	// plan is deferredRetryInterval slots old, bounding the replan rate
	// under overload.
	deferred map[string]resource.Vector
	// planCap records the capacity the plan assumed per slot, so live
	// capacity changes (node loss, maintenance dips) invalidate the plan.
	planCap []resource.Vector

	// adhocReserved[t] is the volume the ad-hoc admission gate has admitted
	// against the leftover of absolute slot t (sched.AdHocFolder); the
	// replan that passes a slot drops it. A replan routes each slot's
	// volume as a one-slot job after every deadline job: the skyline is
	// flattened around it where the deadline work fits beside it, and it
	// yields where that work does not.
	adhocReserved map[int64]resource.Vector
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
	// ShortfallEvents counts replan-kind passes where some demand of the
	// kind could not fit within its deadline window.
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
	// WarmStarts those resumed from a parent's flow, above a cut.
	ColdStarts int
	WarmStarts int
	// Refactors is always zero: a max-flow has no basis to refactorize.
	Refactors int
}

var _ sched.Scheduler = (*FlowTime)(nil)

// New returns a FlowTime scheduler.
func New(cfg Config) *FlowTime {
	return &FlowTime{cfg: cfg, adhocReserved: make(map[int64]resource.Vector)}
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
	folded := false
	for i, v := range consumed {
		if !v.IsZero() {
			// Drains are cumulative (each reports one window's admissions):
			// overlapping slots add.
			f.adhocReserved[from+int64(i)] = f.adhocReserved[from+int64(i)].Add(v)
			folded = true
		}
	}
	if folded {
		f.adhocStale = true
		f.stats.AdHocFolds++
	}
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
		if g := avail.Take(want); !g.IsZero() {
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
			if g := avail.Take(want(j).Min(j.Request.SubClamped(got))); !g.IsZero() {
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
		if g := avail.Take(j.Request); !g.IsZero() {
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
	if len(f.deferred) > 0 && ctx.Now >= f.live.From+deferredRetryInterval {
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

// planJob is the per-job working state during a replan: its window, which
// ends at its true deadline, and the deadline the slack sets inside it.
// The replan that keeps the slack ends the window there.
type planJob struct {
	state   sched.JobState
	relSlot int64 // inclusive, absolute
	dlSlot  int64 // exclusive, absolute
	slackDl int64 // exclusive, absolute, in (relSlot, dlSlot]
}

// replan builds the next revision of the live plan with the per-kind flow
// pipeline under the degradation ladder. It cannot fail: any planner
// trouble steps that kind down to the greedy rung, and the resulting plan
// is checked (checkPlan) before it is served.
func (f *FlowTime) replan(ctx sched.AssignContext, cause string) {
	f.stats.Replans++
	f.stats.Last = sched.ReplanStats{Slot: ctx.Now, Cause: cause}
	// Reservations on passed slots were delivered (or lapsed) and must not
	// constrain future plans.
	//det:unordered deletions commute
	for slot := range f.adhocReserved {
		if slot < ctx.Now {
			delete(f.adhocReserved, slot)
		}
	}
	f.adhocStale = false
	f.planRemaining = make(map[string]resource.Vector)
	f.deferred = make(map[string]resource.Vector)
	f.planCap = nil

	jobs, nSlots, nSlack := f.computeWindows(ctx)
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
	// deficiency; a planner error is no verdict and keeps the slack. Each
	// kind's network is laid out once, on the true windows: the slack pass
	// routes on it with every arc past a slack deadline closed, and dropping
	// the slack routes again on the same network with every arc open.
	probs := f.stageA(ctx, jobs, nSlots, nSlack)
	if f.slackSlots(ctx.Cluster.SlotDur) > 0 && slices.ContainsFunc(probs, (*kindProblem).isShort) {
		f.stats.SlackDropped++
		f.record(probs) // the dropped pass's work and time still count
		eachKind(probs, func(p *kindProblem) { p.dropSlack(f.planFault) })
	} else {
		nSlots = keepSlack(jobs, probs, nSlack)
	}
	f.stats.Last.AtRisk, f.stats.Last.CutFrom, f.stats.Last.CutTo = atRisk(probs, ctx.Now)

	f.planCap = make([]resource.Vector, nSlots)
	for t := int64(0); t < nSlots; t++ {
		f.planCap[t] = ctx.Cluster.CapAt(ctx.Now + t)
	}
	eachKind(probs, func(p *kindProblem) { p.finish(f.planFault) })
	level, reason := f.record(probs)
	next := merge(probs, jobs, ctx.Now, nSlots)

	// Post-validate before the plan is served. An invalid plan — which the
	// pipeline should never produce — is rebuilt at the greedy rung, which
	// is valid by construction.
	if err := checkPlan(next, jobs, f.planCap); err != nil {
		f.degrade.InvalidPlans++
		level, reason = sched.DegradeGreedy, "plan validation: "+err.Error()
		next = rebuildGreedy(probs, jobs, ctx.Now, nSlots)
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

	for _, pj := range jobs {
		var total resource.Vector
		for _, g := range next.Jobs[pj.state.ID].Alloc {
			total = total.Add(g)
		}
		f.planRemaining[pj.state.ID] = total
		if d := pj.state.EstRemaining.SubClamped(total); !d.IsZero() {
			f.deferred[pj.state.ID] = d
		}
	}
	f.publish(next)
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
		j := p.Jobs[pj.state.ID]
		for i, g := range j.Alloc {
			abs := j.Window.Rel + int64(i)
			if !g.FitsIn(pj.state.ParallelCap) {
				return fmt.Errorf("job %q grant %v at slot %d exceeds parallel cap %v", pj.state.ID, g, abs, pj.state.ParallelCap)
			}
			total = total.Add(g)
			load[abs-p.From] = load[abs-p.From].Add(g)
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

// slackSlots is the deadline slack in whole slots of the given length.
func (f *FlowTime) slackSlots(slot time.Duration) int64 {
	if f.cfg.Slack <= 0 {
		return 0
	}
	return int64(f.cfg.Slack / slot)
}

// computeWindows collects the live deadline jobs with their effective
// windows, each with its true and its slack deadline, and the plan length
// in slots under each deadline. The slack deadline is floored at one slot
// past the release, so each slack window is a prefix of the true one and
// the slack's horizon is at most the true one.
func (f *FlowTime) computeWindows(ctx sched.AssignContext) (jobs []*planJob, nSlots, nSlack int64) {
	slack := f.slackSlots(ctx.Cluster.SlotDur)
	jobs = make([]*planJob, 0, len(ctx.Jobs))
	maxDl, maxSlack := ctx.Now+1, ctx.Now+1
	for _, j := range ctx.Jobs {
		if j.Kind != sched.DeadlineJob || j.EstRemaining.IsZero() || j.BestEffort {
			// Best-effort jobs (infeasible decompositions) are excluded from
			// the joint plan; the backlog stage in Assign serves them from
			// leftover capacity ahead of ad-hoc work.
			continue
		}
		pj := &planJob{state: j}
		pj.relSlot = max(int64(j.Release/ctx.Cluster.SlotDur), ctx.Now)
		pj.dlSlot = max(int64(j.Deadline/ctx.Cluster.SlotDur), pj.relSlot+1)
		pj.slackDl = max(pj.dlSlot-slack, pj.relSlot+1)
		if pj.relSlot >= ctx.Now+planSlots {
			// Beyond the lookahead: planStale fires a replan when the
			// job's release arrives.
			continue
		}
		maxDl, maxSlack = max(maxDl, pj.dlSlot), max(maxSlack, pj.slackDl)
		jobs = append(jobs, pj)
	}
	if len(jobs) == 0 {
		return nil, 0, 0
	}

	horizon := func(maxDl int64) int64 { return max(min(maxDl, ctx.Cluster.Horizon), ctx.Now+1) }
	end, slackEnd := horizon(maxDl), horizon(maxSlack)
	for _, pj := range jobs {
		pj.dlSlot, pj.slackDl = min(pj.dlSlot, end), min(pj.slackDl, slackEnd)
		// Only a cluster horizon at or before the release moves it, and
		// then both deadlines are that horizon.
		pj.relSlot = min(pj.relSlot, pj.slackDl-1)
	}
	return jobs, end - ctx.Now, slackEnd - ctx.Now
}

// keepSlack plans the replan on the slack's window set, the one stage A's
// routings were found on and each kind's dl holds: every job's window ends
// at its slack deadline, and every kind is cut to the slack's horizon of
// nSlack slots, which it returns.
func keepSlack(jobs []*planJob, probs []*kindProblem, nSlack int64) int64 {
	for _, pj := range jobs {
		pj.dlSlot = pj.slackDl
	}
	for _, p := range probs {
		p.caps = p.caps[:nSlack]
	}
	return nSlack
}

// kindProblem is one resource kind's share of a replan in the flow
// planner's terms, and everything the kind's pipeline writes, so the kinds
// can run side by side (eachKind). Slot indices are plan offsets (absolute
// slot − now).
type kindProblem struct {
	kind resource.Kind
	caps []int64 // raw cluster capacity per offset
	// pjs are the jobs with demand of this kind, in the replan's job-slice
	// order. jobs are the same jobs as the planner sees them, on their true
	// windows, followed by one one-slot pseudo-job per slot the gate holds
	// a reservation on (demand and cap R_t, window [t, t+1)). dl, indexed
	// like jobs, is the window set the replan plans on, a deadline per job:
	// the slack's until the replan drops it, when it is each job's true
	// one. A reservation past the slack's horizon has its release as its
	// deadline, so it opens no arc. order lists all the jobs as indices,
	// the deadline jobs earliest dl first, then the reservations in slot
	// order. caps is cut to the slack's horizon when the replan keeps it.
	pjs   []*planJob
	jobs  []flow.Job
	dl    []int64
	order []int
	// net is the kind's network, laid out once per replan on the true
	// window set. route is stage A's answer on it, on whose network stage B
	// runs: Short[i] is the demand of jobs[i] it could not route. err is
	// set instead when the planner failed. Reservations route last and stage
	// A never takes flow back from a job it has let in, so the rows of the
	// deadline jobs are their shortfall at raw capacity, and what a
	// reservation keeps, R'_t = R_t − short, is what the known deadlines can
	// afford to leave it.
	net   *flow.Network
	route *flow.Routing
	err   error
	// rows and left are the fill's, indexed like pjs: each deadline job's
	// grants of the kind over its window and the demand it has still to
	// place (reset).
	rows [][]int64
	left []int64
	// What record folds into the stats: the kind's planner work and stage
	// times; once finish split stage A's answer, the reservation volume
	// that yielded and the skyline levels; the rung it took and why.
	work                     flow.Work
	timeA, timeB, timeRepair time.Duration
	split                    bool
	yielded                  int64
	levels                   int
	level                    sched.DegradeLevel
	reason                   string
}

// reserved returns R'_t per slot offset — the reservations as stage A
// left them — and the volume that gave way to deadline work. The
// reservations past the kept horizon took no part and count in neither.
func (p *kindProblem) reserved() (kept []int64, yielded int64) {
	kept = make([]int64, len(p.caps))
	for i := len(p.pjs); i < len(p.jobs) && p.jobs[i].Rel < int64(len(p.caps)); i++ {
		kept[p.jobs[i].Rel] = p.jobs[i].Demand - p.route.Short[i]
		yielded += p.route.Short[i]
	}
	return kept, yielded
}

// stageA builds every kind's problem over the given window set, nSlots
// slots under the true deadlines and nSlack under the slack's, each kind on
// a goroutine of its own that reads only ctx, jobs, the gate's reservations
// and the fault seam, and runs the planner's stage A on it under the slack:
// the max flow at raw cluster capacity, the deadline jobs let in earliest
// slack deadline first — so their deficiency lands on the latest deadlines
// — and the gate's reservations after all of them, so a promise to ad-hoc
// work absorbs a deficiency before any deadline does and never causes one.
// The kind's network is laid out on the true window set and the slack's
// routes on it, each job's deadline its slack one; a reservation past the
// slack's horizon has its release as its deadline and comes last, so it
// takes no part. Kinds no deadline job demands are left out.
func (f *FlowTime) stageA(ctx sched.AssignContext, jobs []*planJob, nSlots, nSlack int64) []*kindProblem {
	var probs []*kindProblem
	for _, kind := range resource.Kinds() {
		probs = append(probs, &kindProblem{kind: kind})
	}
	eachKind(probs, func(p *kindProblem) {
		// Sized for every job and a reservation on every slot.
		p.pjs, p.jobs, p.dl = make([]*planJob, 0, len(jobs)), make([]flow.Job, 0, len(jobs)+int(nSlots)), make([]int64, 0, len(jobs)+int(nSlots))
		for _, pj := range jobs {
			if d := pj.state.EstRemaining.Get(p.kind); d > 0 {
				p.pjs = append(p.pjs, pj)
				p.jobs = append(p.jobs, flow.Job{Demand: d, Rel: pj.relSlot - ctx.Now, Dl: pj.dlSlot - ctx.Now, Cap: pj.state.ParallelCap.Get(p.kind)})
				p.dl = append(p.dl, pj.slackDl-ctx.Now)
			}
		}
		if len(p.jobs) == 0 {
			return
		}
		p.caps = make([]int64, nSlots)
		for t := range p.caps {
			abs := ctx.Now + int64(t)
			p.caps[t] = ctx.Cluster.CapAt(abs).Get(p.kind)
			if r := min(f.adhocReserved[abs].Get(p.kind), p.caps[t]); r > 0 {
				p.jobs = append(p.jobs, flow.Job{Demand: r, Rel: int64(t), Dl: int64(t) + 1, Cap: r})
				dl := int64(t)
				if dl < nSlack {
					dl++
				}
				p.dl = append(p.dl, dl)
			}
		}
		p.sortEDF()
		p.shortfall(f.planFault)
	})
	return slices.DeleteFunc(probs, func(p *kindProblem) bool { return len(p.pjs) == 0 })
}

// sortEDF orders the kind's jobs for stage A: the deadline jobs by dl,
// earliest first, ID as tie-break, then the reservations in slot order.
func (p *kindProblem) sortEDF() {
	p.order = slices.Grow(p.order[:0], len(p.jobs))
	for i := range p.jobs {
		p.order = append(p.order, i)
	}
	slices.SortStableFunc(p.order[:len(p.pjs)], func(a, b int) int {
		return cmp.Or(cmp.Compare(p.dl[a], p.dl[b]), strings.Compare(p.pjs[a].state.ID, p.pjs[b].state.ID))
	})
}

// shortfall runs stage A on the kind's network in the kind's order, each
// job open to its arcs before its dl, and lays the network out first if no
// pass before did.
func (p *kindProblem) shortfall(fault func(resource.Kind) error) {
	p.err = p.runPlanner(fault, &p.timeA, func() (flow.Work, error) {
		if p.net == nil {
			net, err := flow.NewNetwork(p.caps, p.jobs)
			if err != nil {
				return flow.Work{}, err
			}
			p.net = net
		}
		r, err := p.net.Shortfall(p.order, p.dl)
		if err != nil {
			return flow.Work{}, err
		}
		p.route = r
		return r.Work, nil
	})
}

// dropSlack runs stage A again on the kind's network, on the true window
// set: every job's dl its true deadline, the deadline jobs earliest first.
// The slack pass's work is recorded already, and its time is overwritten.
func (p *kindProblem) dropSlack(fault func(resource.Kind) error) {
	p.work = flow.Work{}
	for i, j := range p.jobs {
		p.dl[i] = j.Dl
	}
	p.sortEDF()
	p.shortfall(fault)
}

// isShort reports whether stage A left any deadline demand of this kind
// unrouted. A reservation that came up short is not a shortfall: it
// yielded.
func (p *kindProblem) isShort() bool {
	if p.err != nil {
		return false // no verdict
	}
	for _, s := range p.route.Short[:len(p.pjs)] {
		if s > 0 {
			return true
		}
	}
	return false
}

// atRisk reads stage A's verdict: the workflows with a job left short in
// some kind, by ID, and the span of the slots its min cuts put on the
// source side, empty when only their own caps hold the short jobs back.
func atRisk(probs []*kindProblem, now int64) (wfs []string, from, to int64) {
	from, to = math.MaxInt64, now
	for _, p := range probs {
		if !p.isShort() {
			continue
		}
		for j, pj := range p.pjs {
			if p.route.Short[j] > 0 {
				wfs = append(wfs, pj.state.WorkflowID)
			}
		}
		for t, c := range p.route.SlotCut {
			if c >= 0 {
				from, to = min(from, now+int64(t)), max(to, now+int64(t)+1)
			}
		}
	}
	sort.Strings(wfs)
	return slices.Compact(wfs), min(from, to), to
}

// eachKind runs do on every problem, each on a goroutine of its own, and
// returns once all are done: the fan-out seam, the one place the planner
// starts goroutines (TestPlannerReadsNoWallClock). do writes only its
// problem, and replan folds and merges the problems in kind order after,
// so the plan and the stats are the same however the goroutines ran. A
// panic on a kind's goroutine is raised again on the caller's, as it would
// have been in line. A variable only so this package's tests can run the
// kinds one after the other.
var eachKind = func(probs []*kindProblem, do func(*kindProblem)) {
	panics := make([]any, len(probs))
	var wg sync.WaitGroup
	for i, p := range probs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			do(p)
		}()
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

// runPlanner makes one call into the flow planner, under the fault seam
// when one is set, charges its wall time to *stage, one of the kind's
// stages, and its work to the kind, and turns a panic into an error so a
// planner bug degrades the plan instead of killing the scheduling slot.
func (p *kindProblem) runPlanner(fault func(resource.Kind) error, stage *time.Duration, call func() (flow.Work, error)) (err error) {
	var w flow.Work
	*stage = timed(func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("planner panic: %v", r)
			}
		}()
		if fault != nil {
			if err = fault(p.kind); err != nil {
				return
			}
		}
		w, err = call()
	})
	addWork(&p.work, w)
	return err
}

func addWork(to *flow.Work, w flow.Work) {
	to.MaxFlows += w.MaxFlows
	to.Resumed += w.Resumed
	to.Augmentations += w.Augmentations
	to.ArcsScanned += w.ArcsScanned
}

// timed runs call and returns its wall time: the one place the scheduler
// reads the clock, for its stats and never for a decision.
func timed(call func()) time.Duration {
	start := time.Now()
	call()
	return time.Since(start)
}

// finish runs the rest of the kind's pipeline on top of its stage A
// result — skyline and repair — into the kind's rows, reading only the
// problem and the fault seam. Planner failures never propagate: the kind
// is planned at the greedy rung instead, and the rung and the trip reason
// are recorded.
func (p *kindProblem) finish(fault func(resource.Kind) error) {
	// Stage B, on stage A's network: the lexicographic min-max skyline of
	// the demand stage A could route — the deadline demand that fits plus
	// the reservations that survived, which are jointly feasible at hard
	// capacity, so the skyline is flattened around admitted ad-hoc work
	// wherever that costs no deadline and no level exceeds 1. Without a
	// trustworthy shortfall split any skyline would be built on demand that
	// may not fit, so a stage A failure skips it.
	stage, err := "stage A", p.err
	var sky *flow.Skyline
	var kept []int64
	if err == nil {
		p.split = true
		kept, p.yielded = p.reserved()
		stage = "stage B"
		err = p.runPlanner(fault, &p.timeB, func() (w flow.Work, err error) {
			if sky, err = p.route.LexMinMax(); err != nil {
				return w, err
			}
			p.levels = len(sky.Levels)
			return sky.Work, nil
		})
	}
	if err != nil {
		// Bottom rung: deterministic EDF water-fill under hard caps. No
		// failure mode; whatever cannot fit in-window is deferred and
		// served by the overdue path, exactly like a shortfall.
		p.greedy()
		p.level, p.reason = sched.DegradeGreedy, fmt.Sprintf("%v %s: %v", p.kind, stage, err)
		return
	}
	// Any demand still left after the repair could not fit in windows at
	// all; it is served by the overdue path at run time.
	p.timeRepair = timed(func() { p.repair(sky, kept) })
}

// record folds the kinds' outcomes into the stats, in kind order, and
// returns the rung the replan was planned at — the highest any kind took —
// and the last trip reason. The kinds ran side by side, so each stage is
// charged its slowest kind's time.
func (f *FlowTime) record(probs []*kindProblem) (level sched.DegradeLevel, reason string) {
	var stageA, stageB, repair time.Duration
	var yielded resource.Vector
	for _, p := range probs {
		addWork(&f.stats.Last.Work[int(p.kind)-1], p.work) // kinds start at one
		f.stats.LP.Pivots += p.work.Augmentations
		f.stats.LP.ColdStarts += p.work.MaxFlows
		f.stats.LP.WarmStarts += p.work.Resumed
		f.degrade.LPColdStarts += int64(p.work.MaxFlows)
		f.degrade.LPWarmStarts += int64(p.work.Resumed)
		f.stats.LPRounds += p.levels
		if p.split && p.isShort() {
			f.stats.ShortfallEvents++
		} else if p.split {
			f.stats.StageASkipped++
		}
		yielded = yielded.With(p.kind, p.yielded)
		stageA, stageB, repair = max(stageA, p.timeA), max(stageB, p.timeB), max(repair, p.timeRepair)
		level = max(level, p.level)
		reason = cmp.Or(p.reason, reason)
	}
	if !yielded.IsZero() {
		f.stats.AdHocYielded = f.stats.AdHocYielded.Add(yielded)
		f.stats.AdHocYields++
	}
	f.stats.Last.StageA += stageA
	f.stats.Last.StageB += stageB
	f.stats.Last.Repair += repair
	f.stats.LP.Duration += stageA + stageB
	return level, reason
}

// repair is the integral repair of the skyline load: budgets by
// cumulative rounding of its deadline share under what the surviving
// reservations keep, EDF water-fill of the demand stage A routed within
// the budgets, then a sweep up to the hard cap.
func (p *kindProblem) repair(sky *flow.Skyline, kept []int64) {
	p.reset()
	for i := range p.left {
		p.left[i] -= p.route.Short[i]
	}
	// placed[t] is what the budgets granted at slot offset t, which the
	// sweep fills beside.
	placed := make([]int64, len(p.caps))
	cum := 0.0
	budgetUsed := int64(0)
	for t := range p.caps {
		cum += sky.Load[t] - float64(kept[t])
		budget := min(int64(cum+0.5)-budgetUsed, p.caps[t]-kept[t])
		placed[t] = p.fill(int64(t), budget)
		budgetUsed += placed[t]
	}
	for t := range p.caps {
		p.fill(int64(t), p.caps[t]-placed[t])
	}
}

// greedy is the ladder's bottom rung for the kind: EDF water-fill of the
// whole demand into its rows under the hard caps.
func (p *kindProblem) greedy() {
	p.reset()
	for t, c := range p.caps {
		p.fill(int64(t), c)
	}
}

// rebuildGreedy discards all placed allocation and rebuilds the whole
// plan at the greedy rung (used when post-validation rejects a plan).
func rebuildGreedy(probs []*kindProblem, jobs []*planJob, from, nSlots int64) *plan.Plan {
	for _, p := range probs {
		p.greedy()
	}
	return merge(probs, jobs, from, nSlots)
}

// merge builds an unpublished plan over [from, from+nSlots) from the
// kinds' rows: every job with its effective window and a row over it, into
// which each kind writes its grants, in resource.Kinds() order.
func merge(probs []*kindProblem, jobs []*planJob, from, nSlots int64) *plan.Plan {
	next := &plan.Plan{From: from, NSlots: nSlots, Jobs: make(map[string]plan.Job, len(jobs))}
	for _, pj := range jobs {
		next.Jobs[pj.state.ID] = plan.Job{
			Window: plan.Window{Rel: pj.relSlot, Dl: pj.dlSlot},
			Alloc:  make([]resource.Vector, pj.dlSlot-pj.relSlot),
		}
	}
	for _, p := range probs {
		for i, pj := range p.pjs {
			alloc := next.Jobs[pj.state.ID].Alloc
			for t, g := range p.rows[i] {
				alloc[t] = alloc[t].With(p.kind, g)
			}
		}
	}
	return next
}

// reset gives every deadline job of the kind an all-zero row over its
// window, up to its dl, and all of its demand left to place.
func (p *kindProblem) reset() {
	p.rows, p.left = make([][]int64, len(p.pjs)), make([]int64, len(p.pjs))
	for i, j := range p.jobs[:len(p.pjs)] {
		p.rows[i], p.left[i] = make([]int64, p.dl[i]-j.Rel), j.Demand
	}
}

// fill grants up to budget units of the kind at slot offset t to the
// deadline jobs whose windows cover the slot, earliest deadline first,
// each up to its parallel cap and its demand left, and returns the units
// granted. The windows the slot has closed are a prefix of the EDF order,
// which the walk starts past.
func (p *kindProblem) fill(t, budget int64) int64 {
	if budget <= 0 {
		return 0
	}
	edf := p.order[:len(p.pjs)]
	granted := int64(0)
	open := sort.Search(len(edf), func(k int) bool { return p.dl[edf[k]] > t })
	for _, i := range edf[open:] {
		j := &p.jobs[i]
		if p.left[i] <= 0 || t < j.Rel {
			continue
		}
		cell := &p.rows[i][t-j.Rel]
		g := min(j.Cap-*cell, p.left[i], budget-granted)
		if g <= 0 {
			continue
		}
		*cell += g
		p.left[i] -= g
		granted += g
		if granted >= budget {
			break
		}
	}
	return granted
}
