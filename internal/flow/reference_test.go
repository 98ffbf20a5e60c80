package flow

import "fmt"

// ShortfallReference is stage A as its definition reads: the jobs are let
// in one at a time in the order, each augmented to its own maximum before
// the next, and every search re-walks the part of the graph that is
// already cut off from the sink. It is the reference Shortfall, which
// routes every job in one max flow and then reroutes in order, must equal
// bit for bit in its Routing.
func ShortfallReference(caps []int64, jobs []Job, order []int) (*Routing, error) {
	g, err := NewNetwork(caps, jobs)
	if err != nil {
		return nil, err
	}
	if len(order) != len(jobs) {
		return nil, fmt.Errorf("flow: order names %d jobs, instance has %d", len(order), len(jobs))
	}
	for j, slots := range g.arcSlot {
		for i := range slots {
			g.res[g.arcStart[j]+int32(2*i)] = jobs[j].Cap
		}
	}
	for t, e := range g.sinkEdge {
		if e >= 0 {
			g.res[e] = caps[t]
		}
	}
	r := &Routing{
		Short:   make([]int64, len(jobs)),
		JobCut:  make([]int, len(jobs)),
		SlotCut: make([]int, len(caps)),
	}
	for i := range r.JobCut {
		r.JobCut[i] = -1
	}
	for i := range r.SlotCut {
		r.SlotCut[i] = -1
	}
	seen := make([]bool, len(jobs))
	g.work.MaxFlows = 1
	for pos, j := range order {
		if j < 0 || j >= len(jobs) || seen[j] {
			return nil, fmt.Errorf("flow: order entry %d out of range or repeated", j)
		}
		seen[j] = true
		e := g.srcEdge[j]
		if e < 0 {
			continue
		}
		g.res[e] = jobs[j].Demand
		g.augment()
		if g.res[e] > 0 {
			g.joinCut(r, pos)
		}
		r.Short[j], g.res[e] = g.res[e], 0
	}
	g.joinCut(r, len(order)-1)
	r.Work = g.work
	return r, nil
}
