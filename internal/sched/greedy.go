package sched

import (
	"sort"

	"flowtime/internal/resource"
)

// FIFO grants full requests in arrival order, oblivious to deadlines — the
// YARN FIFO scheduler of the paper's evaluation.
type FIFO struct{}

var _ Scheduler = (*FIFO)(nil)

// NewFIFO returns a FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Scheduler.
func (*FIFO) Name() string { return "FIFO" }

// Assign implements Scheduler.
func (*FIFO) Assign(ctx AssignContext) (map[string]resource.Vector, error) {
	avail := ctx.Cluster.CapAt(ctx.Now)
	grants := make(map[string]resource.Vector, len(ctx.Jobs))
	for _, j := range sortJobs(ctx.Jobs, byArrival) {
		if !j.Ready || j.Request.IsZero() {
			continue
		}
		if g := avail.Take(j.Request); !g.IsZero() {
			grants[j.ID] = g
		}
	}
	return grants, nil
}

// Fair implements max-min fair sharing over dominant resource shares
// across all ready jobs — the YARN Fair scheduler of the evaluation,
// deadline-oblivious.
type Fair struct{}

var _ Scheduler = (*Fair)(nil)

// NewFair returns a Fair scheduler.
func NewFair() *Fair { return &Fair{} }

// Name implements Scheduler.
func (*Fair) Name() string { return "Fair" }

// Assign implements Scheduler.
func (*Fair) Assign(ctx AssignContext) (map[string]resource.Vector, error) {
	capacity := ctx.Cluster.CapAt(ctx.Now)
	avail := capacity
	grants := make(map[string]resource.Vector, len(ctx.Jobs))

	// Progressive filling: repeatedly grant each unsatisfied job one
	// "quantum" (an equal fraction of capacity) in order of lowest current
	// dominant share, until capacity or demand is exhausted. This is the
	// standard water-filling realization of DRF-style max-min fairness.
	type state struct {
		job     JobState
		granted resource.Vector
		left    resource.Vector
	}
	var active []*state
	for _, j := range sortJobs(ctx.Jobs, byArrival) {
		if j.Ready && !j.Request.IsZero() {
			active = append(active, &state{job: j, left: j.Request})
		}
	}
	if len(active) == 0 {
		return grants, nil
	}

	quantum := resource.New(1, 1)
	for _, k := range resource.Kinds() {
		q := capacity.Get(k) / int64(64*len(active))
		if q < 1 {
			q = 1
		}
		quantum = quantum.With(k, q)
	}

	for !avail.IsZero() {
		// Pick the unsatisfied job with the lowest dominant share.
		var best *state
		bestShare := 0.0
		for _, st := range active {
			if st.left.IsZero() {
				continue
			}
			share := st.granted.DominantShare(capacity)
			if best == nil || share < bestShare {
				best, bestShare = st, share
			}
		}
		if best == nil {
			break // everyone satisfied
		}
		ask := quantum.Min(best.left).Min(avail)
		if ask.IsZero() {
			// The lowest-share job cannot use what is left (dimension
			// exhausted); drop it from contention.
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

// EDF schedules deadline jobs in earliest-deadline-first order at full
// request, then hands leftovers to ad-hoc jobs in arrival order — the
// paper's motivating baseline (Fig. 1a): it meets deadlines aggressively
// but starves ad-hoc jobs while deadline work exists.
type EDF struct{}

var _ Scheduler = (*EDF)(nil)

// NewEDF returns an EDF scheduler.
func NewEDF() *EDF { return &EDF{} }

// Name implements Scheduler.
func (*EDF) Name() string { return "EDF" }

// Assign implements Scheduler.
func (*EDF) Assign(ctx AssignContext) (map[string]resource.Vector, error) {
	avail := ctx.Cluster.CapAt(ctx.Now)
	grants := make(map[string]resource.Vector, len(ctx.Jobs))

	var deadlineJobs, adhoc []JobState
	for _, j := range ctx.Jobs {
		if !j.Ready || j.Request.IsZero() {
			continue
		}
		if j.Kind == DeadlineJob {
			deadlineJobs = append(deadlineJobs, j)
		} else {
			adhoc = append(adhoc, j)
		}
	}
	sort.SliceStable(deadlineJobs, func(a, b int) bool {
		if deadlineJobs[a].Deadline != deadlineJobs[b].Deadline {
			return deadlineJobs[a].Deadline < deadlineJobs[b].Deadline
		}
		return deadlineJobs[a].ID < deadlineJobs[b].ID
	})
	for _, j := range deadlineJobs {
		if g := avail.Take(j.Request); !g.IsZero() {
			grants[j.ID] = g
		}
	}
	for _, j := range sortJobs(adhoc, byArrival) {
		if g := avail.Take(j.Request); !g.IsZero() {
			grants[j.ID] = g
		}
	}
	return grants, nil
}

type lessFunc func(a, b JobState) bool

func byArrival(a, b JobState) bool {
	if a.Arrived != b.Arrived {
		return a.Arrived < b.Arrived
	}
	return a.ID < b.ID
}

// sortJobs returns a sorted copy (stable, deterministic).
func sortJobs(jobs []JobState, less lessFunc) []JobState {
	out := append([]JobState(nil), jobs...)
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}
