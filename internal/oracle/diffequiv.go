// Differential equivalence harness for the plan-diff streaming path.
//
// The streaming protocol (core.Config.StreamPlans, internal/plan) lets a
// resource manager journal plan *changes* instead of wholesale plans.
// Its correctness claim is strict: applying the emitted diff sequence to
// an empty plan must reconstruct, bit for bit, the plan the scheduler
// would have published wholesale. DiffEquiv checks that claim from the
// outside on every scheduling decision of a full pipeline run:
//
//   - a diff-streaming FlowTime and an independent wholesale reference
//     are driven with identical AssignContexts;
//   - every emitted diff is round-tripped through the journal codec and
//     applied to an externally accumulated shadow plan;
//   - after every decision, shadow ≡ streaming live plan ≡ wholesale
//     reference plan (allocations, windows and revision), and both
//     schedulers granted identically;
//   - periodically the shadow is torn down and rebuilt from its last
//     checkpoint plus the journaled diffs — the RM crash-recovery and
//     follower-replication path — and must come back identical.
//
// Any divergence is sticky and aborts the run with slot context.
package oracle

import (
	"fmt"

	"flowtime/internal/core"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/sim"
)

// DiffEquiv is a sched.Scheduler wrapper asserting diff/wholesale plan
// equivalence after every Assign. Zero value is not usable; construct
// with NewDiffEquiv.
type DiffEquiv struct {
	stream    *core.FlowTime // grants come from this instance
	wholesale *core.FlowTime // independent reference, identical inputs

	applied  *plan.Plan // shadow plan rebuilt purely from emitted diffs
	snapshot *plan.Plan // last recovery checkpoint of the shadow
	journal  [][]byte   // encoded diffs since the checkpoint

	// replayEvery simulates a crash-recovery rebuild (checkpoint +
	// journal replay) every that many decisions; 0 disables.
	replayEvery int
	steps       int
	diffs       int
	err         error
}

// NewDiffEquiv builds the harness around two FlowTime instances with
// the given config. replayEvery > 0 additionally exercises the
// checkpoint-plus-journal recovery rebuild every that many decisions.
func NewDiffEquiv(cfg core.Config, replayEvery int) *DiffEquiv {
	scfg := cfg
	scfg.StreamPlans = true
	wcfg := cfg
	wcfg.StreamPlans = true
	return &DiffEquiv{
		stream:      core.New(scfg),
		wholesale:   core.New(wcfg),
		applied:     plan.Empty(),
		snapshot:    plan.Empty(),
		replayEvery: replayEvery,
	}
}

// Name implements sched.Scheduler.
func (d *DiffEquiv) Name() string { return "FlowTime+diffequiv" }

// Err returns the first divergence observed, or nil.
func (d *DiffEquiv) Err() error { return d.err }

// Diffs returns how many diffs the harness applied — a run that never
// emitted one proved nothing.
func (d *DiffEquiv) Diffs() int { return d.diffs }

// Assign implements sched.Scheduler: both instances decide on the same
// context, then every equivalence property is checked.
func (d *DiffEquiv) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	if d.err != nil {
		return nil, d.err
	}
	d.steps++
	grants, err := d.stream.Assign(ctx)
	if err != nil {
		return nil, err
	}
	ref, err := d.wholesale.Assign(cloneCtx(ctx))
	if err != nil {
		return nil, fmt.Errorf("wholesale reference at slot %d: %w", ctx.Now, err)
	}
	if err := d.check(ctx.Now, grants, ref); err != nil {
		d.err = fmt.Errorf("diff/wholesale divergence at slot %d (decision %d): %w", ctx.Now, d.steps, err)
		return nil, d.err
	}
	return grants, nil
}

// check applies pending diffs to the shadow plan and asserts every
// equivalence property for this decision.
func (d *DiffEquiv) check(now int64, grants, ref map[string]resource.Vector) error {
	if err := equalGrants(grants, ref); err != nil {
		return fmt.Errorf("grant divergence between identical schedulers: %w", err)
	}
	for i, diff := range d.stream.TakePlanDiffs() {
		// Round-trip through the journal codec exactly as the RM would.
		payload, err := plan.EncodeDiff(diff)
		if err != nil {
			return fmt.Errorf("diff %d: encode: %w", i, err)
		}
		decoded, err := plan.DecodeDiff(payload)
		if err != nil {
			return fmt.Errorf("diff %d: decode: %w", i, err)
		}
		next, err := plan.Apply(d.applied, decoded)
		if err != nil {
			return fmt.Errorf("diff %d (rev %d->%d): apply: %w", i, decoded.BaseRev, decoded.NewRev, err)
		}
		if err := next.Validate(); err != nil {
			return fmt.Errorf("diff %d produced an invalid plan: %w", i, err)
		}
		d.applied = next
		d.journal = append(d.journal, payload)
		d.diffs++
	}
	// Discard the reference's diffs; only its live plan matters.
	d.wholesale.TakePlanDiffs()

	live := d.stream.LivePlan()
	if d.applied.Rev != live.Rev {
		return fmt.Errorf("shadow at rev %d, streaming live plan at rev %d", d.applied.Rev, live.Rev)
	}
	if err := plan.Equal(d.applied, live); err != nil {
		return fmt.Errorf("diff-applied shadow != streaming live plan: %w", err)
	}
	whole := d.wholesale.LivePlan()
	if d.applied.Rev != whole.Rev {
		return fmt.Errorf("shadow at rev %d, wholesale reference at rev %d", d.applied.Rev, whole.Rev)
	}
	if err := plan.Equal(d.applied, whole); err != nil {
		return fmt.Errorf("diff-applied shadow != wholesale plan: %w", err)
	}
	if d.replayEvery > 0 && d.steps%d.replayEvery == 0 {
		if err := d.recover(); err != nil {
			return err
		}
	}
	return nil
}

// recover rebuilds the shadow from the last checkpoint plus the journal
// — the same reconstruction an RM performs after a crash or a follower
// performs from shipped WAL records — and checkpoints on success.
func (d *DiffEquiv) recover() error {
	rebuilt := d.snapshot.Clone()
	for i, payload := range d.journal {
		decoded, err := plan.DecodeDiff(payload)
		if err != nil {
			return fmt.Errorf("recovery replay: journal entry %d: %w", i, err)
		}
		next, err := plan.Apply(rebuilt, decoded)
		if err != nil {
			return fmt.Errorf("recovery replay: journal entry %d (rev %d->%d): %w",
				i, decoded.BaseRev, decoded.NewRev, err)
		}
		rebuilt = next
	}
	if rebuilt.Rev != d.applied.Rev {
		return fmt.Errorf("recovery rebuilt rev %d, live shadow at rev %d", rebuilt.Rev, d.applied.Rev)
	}
	if err := plan.Equal(rebuilt, d.applied); err != nil {
		return fmt.Errorf("checkpoint+journal recovery diverges from live shadow: %w", err)
	}
	if n := len(d.journal); n > 0 {
		// A stale diff must be refused, never silently re-applied: replaying
		// the oldest journal entry onto the recovered plan cannot chain.
		stale, err := plan.DecodeDiff(d.journal[0])
		if err != nil {
			return fmt.Errorf("recovery replay: reread journal entry 0: %w", err)
		}
		if stale.NewRev <= rebuilt.Rev {
			if _, err := plan.Apply(rebuilt, stale); err == nil {
				return fmt.Errorf("stale diff (rev %d->%d) re-applied onto rev %d without error",
					stale.BaseRev, stale.NewRev, rebuilt.Rev)
			}
		}
	}
	d.snapshot = rebuilt.Clone()
	d.journal = nil
	return nil
}

// cloneCtx copies the mutable parts of an AssignContext so the two
// scheduler instances cannot alias each other's view.
func cloneCtx(ctx sched.AssignContext) sched.AssignContext {
	out := ctx
	out.Jobs = append([]sched.JobState(nil), ctx.Jobs...)
	return out
}

// equalGrants compares two grant maps exactly.
func equalGrants(a, b map[string]resource.Vector) error {
	if len(a) != len(b) {
		return fmt.Errorf("grant count %d vs %d", len(a), len(b))
	}
	for id, ga := range a {
		gb, ok := b[id]
		if !ok {
			return fmt.Errorf("job %s granted %v by one instance, nothing by the other", id, ga)
		}
		if ga != gb {
			return fmt.Errorf("job %s granted %v vs %v", id, ga, gb)
		}
	}
	return nil
}

// CheckDiffEquivalence runs a full pipeline scenario through the
// harness: FlowTime grants drive the simulator (with the per-slot
// invariant checker armed and optional fault injection), and every
// decision's diff/wholesale equivalence is asserted. A scenario with
// workflows that never emits a single diff fails: it proved nothing.
func CheckDiffEquivalence(sc *Scenario, faults *sim.FaultInjection) error {
	h := NewDiffEquiv(core.DefaultConfig(), 7)
	capacity := sc.Capacity
	res, err := sim.Run(sim.Config{
		SlotDur:    sc.SlotDur,
		Horizon:    sc.Horizon,
		Capacity:   func(int64) resource.Vector { return capacity },
		Scheduler:  h,
		Workflows:  sc.Workflows,
		AdHoc:      sc.AdHoc,
		Faults:     faults,
		Invariants: true,
	})
	if err != nil {
		return err
	}
	if herr := h.Err(); herr != nil {
		return herr
	}
	if res.InvariantSlots != res.Slots {
		return fmt.Errorf("invariant checker covered %d of %d slots", res.InvariantSlots, res.Slots)
	}
	if h.Diffs() == 0 && len(sc.Workflows)+len(sc.AdHoc) > 0 {
		return fmt.Errorf("harness never saw a plan diff over %d slots with %d workflows and %d ad-hoc jobs",
			res.Slots, len(sc.Workflows), len(sc.AdHoc))
	}
	return nil
}

// ShrinkScenario greedily minimizes a failing scenario: drop whole
// workflows and ad-hoc jobs, then halve the horizon, keeping every
// reduction for which fails still reports failure. fails must be
// deterministic.
func ShrinkScenario(sc *Scenario, fails func(*Scenario) bool) *Scenario {
	cur := cloneScenario(sc)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Workflows); i++ {
			cand := cloneScenario(cur)
			cand.Workflows = append(cand.Workflows[:i:i], cand.Workflows[i+1:]...)
			cand.Regimes = append(cand.Regimes[:i:i], cand.Regimes[i+1:]...)
			if fails(cand) {
				cur, changed = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.AdHoc); i++ {
			cand := cloneScenario(cur)
			cand.AdHoc = append(cand.AdHoc[:i:i], cand.AdHoc[i+1:]...)
			if fails(cand) {
				cur, changed = cand, true
				i--
			}
		}
		if h := cur.Horizon / 2; h >= 8 {
			cand := cloneScenario(cur)
			cand.Horizon = h
			if fails(cand) {
				cur, changed = cand, true
			}
		}
	}
	return cur
}

// cloneScenario shallow-copies the scenario with fresh slices, so
// shrink candidates never alias each other.
func cloneScenario(sc *Scenario) *Scenario {
	out := *sc
	out.Workflows = append(out.Workflows[:0:0], out.Workflows...)
	out.AdHoc = append(out.AdHoc[:0:0], out.AdHoc...)
	out.Regimes = append(out.Regimes[:0:0], out.Regimes...)
	return &out
}
