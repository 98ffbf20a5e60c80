// Package sched defines the scheduler interface shared by FlowTime and the
// paper's baselines, plus the baseline implementations themselves: FIFO,
// Fair, EDF (earliest deadline first), CORA (utility min-max, Huang et al.
// INFOCOM'15), and Morpheus (history-inferred per-job deadlines with
// reservation packing, Jyothi et al. OSDI'16).
//
// A scheduler is invoked once per time slot by the simulator (or by the
// resource-manager service) and returns the per-job resource grants for
// that slot. Schedulers that maintain internal multi-slot plans (FlowTime,
// Morpheus, CORA) rebuild them when Changed reports that the job set or
// readiness changed — the paper's event-driven re-scheduling on job/task
// completions (§III).
package sched

import (
	"time"

	"flowtime/internal/plan"
	"flowtime/internal/resource"
)

// JobKind distinguishes the two workload classes of the paper (§II-A).
type JobKind int

// Job kinds. Enums start at one.
const (
	// DeadlineJob belongs to a deadline-aware workflow; estimates known.
	DeadlineJob JobKind = iota + 1
	// AdHocJob is best-effort; its size is unknown to the scheduler.
	AdHocJob
)

// String returns the kind name.
func (k JobKind) String() string {
	switch k {
	case DeadlineJob:
		return "deadline"
	case AdHocJob:
		return "adhoc"
	default:
		return "unknown"
	}
}

// JobState is the scheduler-visible state of one live job. For deadline
// jobs the estimate fields are populated from the recurring workflow's
// prior-run knowledge; for ad-hoc jobs only identity, arrival, readiness
// and the current Request are known (the paper's "no a priori knowledge").
type JobState struct {
	// ID is unique across the run.
	ID string
	// Kind is DeadlineJob or AdHocJob.
	Kind JobKind
	// WorkflowID is the owning workflow (deadline jobs only).
	WorkflowID string
	// JobName is the job's name within its workflow (deadline jobs only).
	JobName string

	// Arrived is when the job entered the system (workflow submit time for
	// deadline jobs, submission time for ad-hoc jobs).
	Arrived time.Duration
	// Release and Deadline bound the job's decomposed scheduling window
	// (deadline jobs only; zero for ad-hoc jobs). The window is what a
	// planner places the job's work in; Release is not a launch gate. Only
	// arrived jobs are listed, so Ready is the physical launch condition,
	// and a scheduler may run a Ready job before its Release on capacity
	// nothing else wants (FlowTime does).
	Release  time.Duration
	Deadline time.Duration

	// EstRemaining is the estimated remaining work volume in
	// resource-slot units (deadline jobs only).
	EstRemaining resource.Vector
	// ParallelCap is the job's estimated per-slot allocation ceiling.
	ParallelCap resource.Vector
	// MinSlots is the estimated minimum remaining runtime in slots.
	MinSlots int64

	// Request is the largest grant the job can consume this slot — its
	// pending tasks' demand. Observable in a real resource manager for
	// both kinds.
	Request resource.Vector
	// Ready reports whether all dependencies have completed.
	Ready bool
	// ReadyOnConfirm marks a deadline job that is not Ready only because
	// its unfinished predecessors have all their remaining work running:
	// it becomes Ready inside this slot, when that work is confirmed. A
	// grant to it is an offer the resource manager dispatches on that
	// confirm or drops at the next slot; a scheduler may make one only from
	// capacity no Ready job wants (FlowTime does, the baselines ignore the
	// field). Never set together with Ready; the simulator never sets it.
	ReadyOnConfirm bool
	// BestEffort marks a deadline job admitted without a feasible window
	// decomposition (admission control). Planning schedulers exclude such
	// jobs from their joint optimization — their windows are not
	// trustworthy — and serve them from leftover capacity instead, ahead
	// of ad-hoc work.
	BestEffort bool
}

// ClusterView exposes the cluster to schedulers.
type ClusterView struct {
	// SlotDur is the duration of one scheduling slot.
	SlotDur time.Duration
	// Horizon is the number of slots in the planning window.
	Horizon int64
	// CapAt returns the cluster capacity at the given absolute slot. It
	// must be callable for any slot in [0, Horizon).
	CapAt func(slot int64) resource.Vector
}

// AssignContext is the input to one scheduling decision.
type AssignContext struct {
	// Now is the current absolute slot index.
	Now int64
	// Changed reports whether the job set, readiness, or capacity changed
	// since the previous Assign call (always true on the first call).
	Changed bool
	// Jobs lists all live (arrived, incomplete) jobs in arrival order.
	Jobs []JobState
	// Cluster is the cluster view.
	Cluster ClusterView
}

// Scheduler decides per-slot grants. Implementations must be deterministic
// given the same sequence of AssignContexts.
type Scheduler interface {
	// Name returns the algorithm's display name ("FlowTime", "EDF", ...).
	Name() string
	// Assign returns the grant for each job for slot ctx.Now, keyed by job
	// ID. Jobs absent from the map receive nothing. Grants exceeding a
	// job's Request or the cluster capacity are clamped by the caller, but
	// well-behaved schedulers stay within both.
	Assign(ctx AssignContext) (map[string]resource.Vector, error)
}

// PlanStreamer is implemented by planning schedulers that expose their
// multi-slot plan as a versioned live plan plus incremental diffs, so a
// resource manager can journal and replicate plan *changes* instead of
// wholesale plans. Streaming must be explicitly enabled on the scheduler
// (core.Config.StreamPlans); without a consumer draining TakePlanDiffs,
// pending diffs would otherwise accumulate without bound.
type PlanStreamer interface {
	// LivePlan returns a snapshot of the scheduler's current plan (the
	// result of applying every diff emitted so far). Never nil: before
	// the first replan, and when streaming is disabled, it is the empty
	// revision-0 plan.
	LivePlan() *plan.Plan
	// TakePlanDiffs returns the diffs emitted since the last call, in
	// application order, and clears the pending list. Each diff's
	// BaseRev chains to the previous diff's NewRev.
	TakePlanDiffs() []*plan.Diff
}

// AdHocFolder is an optional extension of planning schedulers: the
// resource manager's ad-hoc admission gate reports, at every plan rebase,
// the volume it admitted against the retired leftover profile (one vector
// per slot starting at from — adhoc.Drain.Consumed). A scheduler that
// implements it keeps those volumes as per-slot reservations and plans
// its next revision around them where it can, instead of the gate having
// to force an urgent full replan or the plan double-booking capacity the
// gate admitted against. A reservation is a promise to best-effort work:
// it shapes the plan wherever deadline work fits beside it and gives way
// wherever it does not, never the other way round. Folds are cumulative:
// each call reports only the admissions of the epoch being retired.
type AdHocFolder interface {
	FoldAdHocDrain(from int64, consumed []resource.Vector)
}

// grantUpTo grants min(request, available) component-wise and debits
// available in place.
func grantUpTo(request resource.Vector, available *resource.Vector) resource.Vector {
	g := request.Min(*available)
	*available = available.Sub(g)
	return g
}
