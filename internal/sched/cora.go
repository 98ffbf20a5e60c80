package sched

import (
	"flowtime/internal/resource"
)

// CORA reimplements the objective of the CORA scheduler (Huang et al.,
// "Need for Speed: CORA Scheduler for Optimizing Completion-Times in the
// Cloud", INFOCOM 2015) as used in the paper's evaluation: utility
// functions over completion times for two job classes — deadline-critical
// (the workflow jobs) and deadline-sensitive (the ad-hoc jobs) — with the
// allocator minimizing the maximum utility rather than the deadline-miss
// count or the ad-hoc turnaround directly.
//
// Per slot, each job's utility gradient is its normalized unmet need:
//
//   - deadline-critical: the fraction of its maximum rate required to
//     finish by its deadline (remaining work over remaining window),
//   - deadline-sensitive: an aging waiting-time pressure.
//
// Capacity is water-filled toward the job with the highest residual need,
// which greedily equalizes (and thus min-maxes) the utilities. The paper
// observes CORA lands in the middle on both metrics — it neither
// prioritizes deadlines absolutely (as EDF) nor flattens deadline work out
// of the ad-hoc jobs' way (as FlowTime) — and that is exactly how this
// allocator behaves.
type CORA struct{}

// coraAgeScaleSlots converts ad-hoc waiting time into utility: a wait of
// coraAgeScaleSlots slots has utility 1 (the urgency of a deadline job
// that needs its full rate).
const coraAgeScaleSlots = 60

var _ Scheduler = (*CORA)(nil)

// NewCORA returns a CORA scheduler.
func NewCORA() *CORA { return &CORA{} }

// Name implements Scheduler.
func (*CORA) Name() string { return "CORA" }

// Assign implements Scheduler.
func (*CORA) Assign(ctx AssignContext) (map[string]resource.Vector, error) {
	capacity := ctx.Cluster.CapAt(ctx.Now)
	avail := capacity
	grants := make(map[string]resource.Vector, len(ctx.Jobs))

	type state struct {
		job     JobState
		need    float64 // utility gradient at zero allocation
		granted resource.Vector
		left    resource.Vector
	}
	var active []*state
	for _, j := range sortJobs(ctx.Jobs, byArrival) {
		if !j.Ready || j.Request.IsZero() {
			continue
		}
		st := &state{job: j, left: j.Request}
		switch j.Kind {
		case DeadlineJob:
			// Fraction of the job's own maximum rate needed to finish in
			// the remaining window; > 1 means it is already in trouble and
			// outranks everything else.
			slotsLeft := int64(j.Deadline)/int64(ctx.Cluster.SlotDur) - ctx.Now
			if slotsLeft < 1 {
				slotsLeft = 1
			}
			needRate := j.EstRemaining.DominantShare(j.ParallelCap.Scale(slotsLeft))
			st.need = needRate * 2 // deadline-critical utility weight
		default:
			waited := int64(j.Arrived)/int64(ctx.Cluster.SlotDur) - ctx.Now
			st.need = float64(-waited) / coraAgeScaleSlots // -waited = slots waited
		}
		active = append(active, st)
	}
	if len(active) == 0 {
		return grants, nil
	}

	// Quantum sizing as in Fair: a small fraction of capacity.
	quantum := resource.New(1, 1)
	for _, k := range resource.Kinds() {
		q := capacity.Get(k) / int64(64*len(active))
		if q < 1 {
			q = 1
		}
		quantum = quantum.With(k, q)
	}

	for !avail.IsZero() {
		// Highest residual utility gradient first: need minus the share of
		// its request already satisfied.
		var best *state
		bestScore := 0.0
		for _, st := range active {
			if st.left.IsZero() {
				continue
			}
			score := st.need - st.granted.DominantShare(st.job.Request)
			if best == nil || score > bestScore {
				best, bestScore = st, score
			}
		}
		if best == nil {
			break
		}
		ask := quantum.Min(best.left).Min(avail)
		if ask.IsZero() {
			best.left = resource.Vector{}
			continue
		}
		g := avail.Take(ask)
		best.granted = best.granted.Add(g)
		best.left = best.left.SubClamped(g)
	}

	for _, st := range active {
		if !st.granted.IsZero() {
			grants[st.job.ID] = st.granted
		}
	}
	return grants, nil
}
