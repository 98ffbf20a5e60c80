package sim

import (
	"fmt"

	"flowtime/internal/machine"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// Observation is one job's state at the end of a slot, as seen by the
// InvariantChecker: the grant it received this slot, the request and
// readiness it advertised when the grant was made, and its cumulative
// accounting after the grant was applied.
type Observation struct {
	ID string
	// Kind is the job's class and Early marks a deadline job whose
	// decomposed Release lies after this slot. Only CheckWorkConserving
	// reads them; Observe fills them in.
	Kind  sched.JobKind
	Early bool
	// Granted is the clamped grant applied this slot (zero if none).
	Granted resource.Vector
	// Request and Ready are the values the scheduler saw this slot, and
	// OnConfirm its ReadyOnConfirm: a grant to such a job is an offer.
	// Only a resource manager sets it, and only CheckWorkConserving reads it.
	Request   resource.Vector
	Ready     bool
	OnConfirm bool
	// Consumed and Remaining are the job's cumulative consumption and
	// true remaining volume after the grant.
	Consumed  resource.Vector
	Remaining resource.Vector
	// Done reports completion as of the end of this slot.
	Done bool
}

// InvariantChecker asserts the simulator's per-slot safety invariants,
// independent of any scheduler:
//
//   - allocation never exceeds cluster capacity in any resource kind;
//   - a grant never exceeds the job's request, and only ready jobs
//     receive grants;
//   - consumption and remaining volume are never negative;
//   - work is conserved: consumed + remaining is constant per job;
//   - consumed work is monotone non-decreasing (confirmed work is never
//     un-confirmed);
//   - completion is permanent, implies zero remaining work, and no
//     grants flow to completed jobs.
//
// Create with NewInvariantChecker and feed it every simulated slot; it
// carries per-job history across slots, so one checker serves one run.
type InvariantChecker struct {
	consumed map[string]resource.Vector
	total    map[string]resource.Vector
	done     map[string]bool
	slots    int64
}

// NewInvariantChecker returns a checker with empty history.
func NewInvariantChecker() *InvariantChecker {
	return &InvariantChecker{
		consumed: make(map[string]resource.Vector),
		total:    make(map[string]resource.Vector),
		done:     make(map[string]bool),
	}
}

// Slots returns how many slots have been checked.
func (c *InvariantChecker) Slots() int64 { return c.slots }

// CheckSlot verifies one slot's observations against the invariants.
// The first error found is returned; nil means the slot is clean.
func (c *InvariantChecker) CheckSlot(slot int64, capacity resource.Vector, obs []Observation) error {
	var used resource.Vector
	seen := make(map[string]bool, len(obs))
	for _, o := range obs {
		if seen[o.ID] {
			return fmt.Errorf("invariant: job %s observed twice in slot %d", o.ID, slot)
		}
		seen[o.ID] = true
		if o.Granted.AnyNegative() {
			return fmt.Errorf("invariant: job %s negative grant %v", o.ID, o.Granted)
		}
		used = used.Add(o.Granted)
		if !o.Granted.FitsIn(o.Request) {
			return fmt.Errorf("invariant: job %s granted %v over request %v", o.ID, o.Granted, o.Request)
		}
		if !o.Ready && !o.Granted.IsZero() {
			return fmt.Errorf("invariant: job %s granted %v while not ready", o.ID, o.Granted)
		}
		if o.Consumed.AnyNegative() {
			return fmt.Errorf("invariant: job %s negative consumption %v", o.ID, o.Consumed)
		}
		if o.Remaining.AnyNegative() {
			return fmt.Errorf("invariant: job %s negative remaining volume %v", o.ID, o.Remaining)
		}
		if prev, ok := c.consumed[o.ID]; ok && !prev.FitsIn(o.Consumed) {
			return fmt.Errorf("invariant: job %s consumed work regressed: %v -> %v", o.ID, prev, o.Consumed)
		}
		c.consumed[o.ID] = o.Consumed
		total := o.Consumed.Add(o.Remaining)
		if t0, ok := c.total[o.ID]; !ok {
			c.total[o.ID] = total
		} else if total != t0 {
			return fmt.Errorf("invariant: job %s work not conserved: consumed+remaining %v, was %v", o.ID, total, t0)
		}
		if c.done[o.ID] {
			if !o.Done {
				return fmt.Errorf("invariant: job %s completion revoked", o.ID)
			}
			if !o.Granted.IsZero() {
				return fmt.Errorf("invariant: job %s granted %v after completion", o.ID, o.Granted)
			}
		}
		if o.Done {
			if !o.Remaining.IsZero() {
				return fmt.Errorf("invariant: job %s done with remaining volume %v", o.ID, o.Remaining)
			}
			c.done[o.ID] = true
		}
	}
	if !used.FitsIn(capacity) {
		return fmt.Errorf("invariant: slot %d allocation %v exceeds capacity %v", slot, used, capacity)
	}
	c.slots++
	return nil
}

// Observe is the scheduler-side view of one Assign call: one Observation
// per job the scheduler saw, carrying the grant it returned — unclamped,
// before any machine placement — for CheckWorkConserving. The cumulative
// accounting fields stay zero.
func Observe(ctx sched.AssignContext, grants map[string]resource.Vector) []Observation {
	obs := make([]Observation, 0, len(ctx.Jobs))
	for _, j := range ctx.Jobs {
		obs = append(obs, Observation{
			ID:        j.ID,
			Kind:      j.Kind,
			Early:     j.Kind == sched.DeadlineJob && int64(j.Release/ctx.Cluster.SlotDur) > ctx.Now,
			Granted:   grants[j.ID],
			Request:   j.Request,
			Ready:     j.Ready,
			OnConfirm: j.ReadyOnConfirm,
		})
	}
	return obs
}

// CheckWorkConserving verifies work conservation on the grants a scheduler
// returned for one slot (Observe), before anything downstream clamps or
// places them. It is opt-in — CheckSlot does not call it — because it is
// FlowTime's promise, not every scheduler's (Morpheus holds capacity back
// for the reservations it packed):
//
//   - no idle beside a request: a resource kind with capacity left has no
//     ready job, of either kind, short of its Request in that kind;
//   - ad-hoc work never waits for early deadline work: in a kind where a
//     deadline job was granted before its Release, every ready ad-hoc job
//     got its whole Request;
//   - an offer costs nobody anything: a job that is not ready is granted
//     only if it is ready on confirm, and only in a kind where every ready
//     job, deadline or ad-hoc, got its whole Request.
func (c *InvariantChecker) CheckWorkConserving(slot int64, capacity resource.Vector, obs []Observation) error {
	var used resource.Vector
	for _, o := range obs {
		used = used.Add(o.Granted)
	}
	for _, k := range resource.Kinds() {
		idle := capacity.Get(k) > used.Get(k)
		early, offered := "", ""
		for _, o := range obs {
			if o.Granted.Get(k) == 0 {
				continue
			}
			if o.Early && early == "" {
				early = o.ID
			}
			if !o.Ready {
				if !o.OnConfirm {
					return fmt.Errorf("invariant: slot %d grants %v to %s, which is neither ready nor ready on confirm", slot, k, o.ID)
				}
				offered = o.ID
			}
		}
		for _, o := range obs {
			if !o.Ready || o.Granted.Get(k) >= o.Request.Get(k) {
				continue
			}
			if idle {
				return fmt.Errorf("invariant: slot %d leaves %d %v idle beside ready job %s, granted %v of %v",
					slot, capacity.Get(k)-used.Get(k), k, o.ID, o.Granted, o.Request)
			}
			if early != "" && o.Kind == sched.AdHocJob {
				return fmt.Errorf("invariant: slot %d grants %v to %s before its release while ad-hoc job %s has %v of %v",
					slot, k, early, o.ID, o.Granted, o.Request)
			}
			if offered != "" {
				return fmt.Errorf("invariant: slot %d offers %v to %s, ready only on confirm, while ready job %s has %v of %v",
					slot, k, offered, o.ID, o.Granted, o.Request)
			}
		}
	}
	return nil
}

// CheckMachines verifies the machine-mode per-node invariants for one
// slot: no machine is overcommitted beyond its effective capacity (the
// cluster guarantees by construction that only live machines carry
// work, so any usage row is a live machine), and the summed per-machine
// occupancy equals exactly the volume the simulator granted — every
// consumed quantum landed somewhere concrete, and nothing landed twice.
func (c *InvariantChecker) CheckMachines(slot int64, granted resource.Vector, usage []machine.Usage) error {
	var sum resource.Vector
	seen := make(map[string]bool, len(usage))
	for _, u := range usage {
		if seen[u.ID] {
			return fmt.Errorf("invariant: machine %s reported twice in slot %d", u.ID, slot)
		}
		seen[u.ID] = true
		if u.Used.AnyNegative() {
			return fmt.Errorf("invariant: machine %s negative occupancy %v", u.ID, u.Used)
		}
		if !u.Used.FitsIn(u.Capacity) {
			return fmt.Errorf("invariant: machine %s overcommitted: %v on capacity %v in slot %d",
				u.ID, u.Used, u.Capacity, slot)
		}
		sum = sum.Add(u.Used)
	}
	if sum != granted {
		return fmt.Errorf("invariant: slot %d placed volume %v != granted volume %v", slot, sum, granted)
	}
	return nil
}
