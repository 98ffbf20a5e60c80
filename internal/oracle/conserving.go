package oracle

import (
	"fmt"

	"flowtime/internal/core"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/sim"
)

// Conserving is a FlowTime whose every Assign is checked, on the grants
// exactly as the scheduler returned them — before a simulator or resource
// manager clamps or places anything — against the two relations that
// license handing idle capacity to deadline work early:
//
//   - work conservation (sim.InvariantChecker.CheckWorkConserving): no
//     capacity idles beside a ready request, and a deadline job runs before
//     its release only where no ad-hoc job is short;
//   - ad-hoc removal, per slot: ad-hoc work costs deadline work idle
//     capacity and nothing else. A twin scheduler is fed the same contexts
//     with the ad-hoc jobs struck out (its planner state is the primary's —
//     no replan reads an ad-hoc job). What each scheduler granted deadline
//     work, less what its idle pass handed out (Stats.Backfilled), is what
//     deadline work claimed ahead of ad-hoc work — plan, overdue, backlog —
//     and must be the same in both, kind by kind: the twin has no ad-hoc job
//     to serve, so wherever the ad-hoc pass sits it takes nothing there, and
//     a primary that served an ad-hoc job ahead of a claim comes out short.
//     Per job, the primary grants no more than the twin.
//
// The end-to-end form — identical outcomes with and without the stream —
// stopped holding by design when deadline work began to use what the
// stream leaves idle; TestStreamCostsOnlyIdleCapacity pins what is left of
// it.
//
// A violation is returned as the Assign error, so the run that drives it
// fails at that slot. Embedding keeps FlowTime's optional interfaces (plan
// streaming, degradation) visible to the driver.
type Conserving struct {
	*core.FlowTime
	alone   *core.FlowTime
	checker *sim.InvariantChecker
	slots   int64
}

// NewConserving builds the checked scheduler and its twin from cfg.
func NewConserving(cfg core.Config) *Conserving {
	twin := cfg
	twin.StreamPlans = false // nobody drains the twin's diffs
	return &Conserving{FlowTime: core.New(cfg), alone: core.New(twin), checker: sim.NewInvariantChecker()}
}

// Slots returns how many Assign calls passed the checks.
func (c *Conserving) Slots() int64 { return c.slots }

// FoldAdHocDrain implements sched.AdHocFolder for both schedulers: the
// gate's reservations are planner state.
func (c *Conserving) FoldAdHocDrain(from int64, consumed []resource.Vector) {
	c.FlowTime.FoldAdHocDrain(from, consumed)
	c.alone.FoldAdHocDrain(from, consumed)
}

// Assign implements sched.Scheduler.
func (c *Conserving) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	grants, claimed, err := assignClaims(c.FlowTime, ctx)
	if err != nil {
		return nil, err
	}
	bare := ctx
	bare.Jobs = make([]sched.JobState, 0, len(ctx.Jobs))
	for _, j := range ctx.Jobs {
		if j.Kind == sched.DeadlineJob {
			bare.Jobs = append(bare.Jobs, j)
		}
	}
	alone, claimedAlone, err := assignClaims(c.alone, bare)
	if err != nil {
		return nil, err
	}
	for _, j := range bare.Jobs {
		if !grants[j.ID].FitsIn(alone[j.ID]) {
			return nil, fmt.Errorf("invariant: slot %d: %s granted %v beside the ad-hoc jobs, %v without them",
				ctx.Now, j.ID, grants[j.ID], alone[j.ID])
		}
	}
	if claimed != claimedAlone {
		return nil, fmt.Errorf("invariant: slot %d: deadline work was granted %v ahead of the ad-hoc jobs, %v with them struck out",
			ctx.Now, claimed, claimedAlone)
	}
	if err := c.checker.CheckWorkConserving(ctx.Now, ctx.Cluster.CapAt(ctx.Now), sim.Observe(ctx, grants)); err != nil {
		return nil, err
	}
	c.slots++
	return grants, nil
}

// assignClaims runs one Assign and also returns what it granted deadline
// work ahead of ad-hoc work: every deadline grant, less what the idle pass
// handed out in this call.
func assignClaims(f *core.FlowTime, ctx sched.AssignContext) (grants map[string]resource.Vector, claimed resource.Vector, err error) {
	idleBefore := f.Stats().Backfilled
	if grants, err = f.Assign(ctx); err != nil {
		return nil, claimed, err
	}
	for _, j := range ctx.Jobs {
		if j.Kind == sched.DeadlineJob {
			claimed = claimed.Add(grants[j.ID])
		}
	}
	return grants, claimed.Sub(f.Stats().Backfilled.Sub(idleBefore)), nil
}
