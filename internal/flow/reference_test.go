package flow

import (
	"fmt"
	"math/bits"
)

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
		g.augment(g.sources)
		if g.res[e] > 0 {
			g.joinCut(r, pos)
		}
		r.Short[j], g.res[e] = g.res[e], 0
	}
	g.joinCut(r, len(order)-1)
	r.Work = g.work
	return r, nil
}

// LexMinMaxReference is stage B as Newton's method peels it, level by
// level from the top: discrete Newton on θ from min cuts finds the
// highest level of what is left, the maximal min cut at it is frozen, and
// the rest is solved again. It is the reference LexMinMax, which solves
// each part of the decomposition once at its mean level, must equal in
// its Load, its verdicts and its levels, bit for bit.
func LexMinMaxReference(caps []int64, jobs []Job) (*Skyline, error) {
	g, err := NewNetwork(caps, jobs)
	if err != nil {
		return nil, err
	}
	all, _ := g.opened(nil) // every arc: no count to check
	return (&Routing{Short: make([]int64, len(jobs)), g: g, open: all}).LexMinMaxReference()
}

// LexMinMaxReference is LexMinMaxReference on the demand r routed, over
// the arcs r opened, as Routing.LexMinMax is LexMinMax.
func (r *Routing) LexMinMaxReference() (*Skyline, error) {
	g := r.g
	g.reset(r.open)
	s := &newton{
		Network:    g,
		demand:     make([]int64, len(g.jobs)),
		jobActive:  make([]bool, len(g.jobs)),
		slotActive: make([]bool, len(g.caps)),
		base:       make([]int64, len(g.caps)),
		stuck:      make([]bool, len(g.level)),
		out: &Skyline{
			Load:  make([]float64, len(g.caps)),
			Alloc: make([][]int64, len(g.jobs)),
			Den:   make([]int64, len(g.jobs)),
		},
	}
	// A job is active when it has demand, a slot when an active job has an
	// open arc to it.
	for j, job := range g.jobs {
		if s.demand[j] = job.Demand - r.Short[j]; s.demand[j] > 0 {
			s.jobActive[j] = true
			s.activeJobs++
			s.out.Alloc[j] = make([]int64, job.Dl-job.Rel)
			for _, t := range g.arcs(j) {
				s.slotActive[t] = true
			}
		}
	}
	for s.activeJobs > 0 {
		if err := s.solveLevel(); err != nil {
			return nil, err
		}
	}
	// A slot still active once every job is frozen carries only what
	// frozen jobs were forced to put there.
	for t, on := range s.slotActive {
		if on {
			s.out.Load[t] = float64(s.base[t])
		}
	}
	s.out.Work = g.work
	return s.out, nil
}

// newton is LexMinMaxReference's working state: each job's demand, the
// jobs and slots still being levelled, and base[t], the load that jobs
// frozen at earlier levels are forced to put on a still-active slot t
// (their Cap — those arcs cross the min cut that froze them).
type newton struct {
	*Network
	demand     []int64
	jobActive  []bool
	slotActive []bool
	activeJobs int
	base       []int64
	den        int64   // the flow is in units of 1/den; 0 before the first max-flow
	stuck      []bool  // per node: cannot reach the sink in the residual graph
	back       []int32 // freeze's own BFS queue; search owns Network.queue
	out        *Skyline
}

// solveLevel finds the smallest θ at which the active jobs' demand
// routes through the active slots' sink capacities θ·C_t − base_t and
// freezes the maximal tight set at it.
func (s *newton) solveLevel() error {
	var demand, capSum, baseSum int64
	var err error
	for j, on := range s.jobActive {
		if on {
			if demand, err = add(demand, s.demand[j]); err != nil {
				return err
			}
		}
	}
	// Newton starts from a lower bound on the level: the mean over the
	// active slots, and the level the forced load alone puts on any one
	// of them (under which its sink capacity would be negative).
	theta := ratio{0, 1}
	for t, on := range s.slotActive {
		if !on {
			continue
		}
		if capSum, err = add(capSum, s.caps[t]); err != nil {
			return err
		}
		if baseSum, err = add(baseSum, s.base[t]); err != nil {
			return err
		}
		theta = theta.max(newRatio(s.base[t], s.caps[t]))
	}
	if capSum == 0 {
		return ErrInfeasible // demand left and no slot to take it
	}
	total, err := add(demand, baseSum)
	if err != nil {
		return err
	}
	theta = theta.max(newRatio(total, capSum))

	for {
		want, err := s.setCaps(theta, demand)
		if err != nil {
			return err
		}
		s.augment(s.sources)
		routed := int64(0)
		for j, on := range s.jobActive {
			if on {
				routed += s.res[s.srcEdge[j]^1]
			}
		}
		if routed == want {
			break
		}
		next, err := s.cutLevel(demand)
		if err != nil {
			return err
		}
		if !theta.less(next) {
			return fmt.Errorf("flow: Newton step from %d/%d did not advance (internal error)", theta.num, theta.den)
		}
		theta = next
	}
	return s.freeze(theta)
}

// setCaps scales the active subnetwork by theta's denominator and
// returns the scaled demand. It keeps as much of the flow already there
// as the new capacities admit, so a Newton step resumes from the step
// before and a level from the level above: each job→slot flow is
// rescaled to the new denominator rounding down, which keeps it inside
// its arc and — the level only having risen — its sink capacity; a level
// that starts lower than the last one ended trims the slots now over
// capacity; and the source and sink flows are re-summed from the arcs.
func (s *newton) setCaps(theta ratio, demand int64) (want int64, err error) {
	if want, err = mul(demand, theta.den); err != nil {
		return 0, err
	}
	if s.den == 0 {
		s.work.MaxFlows++
		s.den = 1 // nothing to rescale yet
	} else {
		s.work.Resumed++
	}
	prevDen := s.den
	s.den = theta.den
	for _, e := range s.sinkEdge {
		if e >= 0 {
			s.res[e], s.res[e^1] = 0, 0
		}
	}
	for j, se := range s.srcEdge {
		if se < 0 {
			continue
		}
		job := s.jobs[j]
		arcCap, full := int64(0), int64(0)
		if s.jobActive[j] {
			if arcCap, err = mul(job.Cap, theta.den); err != nil {
				return 0, err
			}
			if full, err = mul(s.demand[j], theta.den); err != nil {
				return 0, err
			}
		}
		sent := int64(0)
		for i, t := range s.arcs(j) {
			e := s.arcStart[j] + int32(2*i)
			if !s.jobActive[j] || !s.slotActive[t] {
				s.res[e], s.res[e^1] = 0, 0
				continue
			}
			x := mulDiv(s.res[e^1], theta.den, prevDen)
			s.res[e], s.res[e^1] = arcCap-x, x
			s.res[s.sinkEdge[t]^1] += x
			sent += x
		}
		s.res[se], s.res[se^1] = full-sent, sent
	}
	for t, on := range s.slotActive {
		if !on {
			continue
		}
		hi, err := mul(theta.num, s.caps[t])
		if err != nil {
			return 0, err
		}
		lo, err := mul(s.base[t], theta.den)
		if err != nil {
			return 0, err
		}
		// hi ≥ lo by the choice of the starting level.
		e := s.sinkEdge[t]
		over := s.res[e^1] - (hi - lo)
		if over > 0 {
			s.res[e^1] = hi - lo
			v := s.slotNode(t)
			for _, back := range s.adj[s.adjStart[v]:s.adjStart[v+1]] {
				if over == 0 {
					break
				}
				if back == e {
					continue
				}
				cut := min(over, s.res[back]) // back is slot→job: its residual is the job→slot flow
				se := s.srcEdge[s.to[back]-1]
				s.res[back] -= cut
				s.res[back^1] += cut
				s.res[se^1] -= cut
				s.res[se] += cut
				over -= cut
			}
		}
		s.res[e] = hi - lo - s.res[e^1]
	}
	return want, nil
}

// cutLevel reads the min cut off the labels of the failed search and
// returns the level at which that cut's capacity reaches the demand:
// with a the capacity of its cut source and job→slot arcs and T its
// slots, a + Σ_T (θ·C_t − base_t) = demand.
func (s *newton) cutLevel(demand int64) (ratio, error) {
	var fixed, capT, baseT int64
	var err error
	for j, on := range s.jobActive {
		if !on {
			continue
		}
		if s.level[s.jobNode(j)] < 0 {
			if fixed, err = add(fixed, s.demand[j]); err != nil {
				return ratio{}, err
			}
			continue
		}
		for _, t := range s.arcs(j) {
			if s.slotActive[t] && s.level[s.slotNode(int(t))] < 0 {
				if fixed, err = add(fixed, s.jobs[j].Cap); err != nil {
					return ratio{}, err
				}
			}
		}
	}
	for t, on := range s.slotActive {
		if on && s.level[s.slotNode(t)] >= 0 {
			if capT, err = add(capT, s.caps[t]); err != nil {
				return ratio{}, err
			}
			if baseT, err = add(baseT, s.base[t]); err != nil {
				return ratio{}, err
			}
		}
	}
	if capT == 0 {
		return ratio{}, ErrInfeasible // the cut holds at every level
	}
	// fixed < demand: the cut is worth less than the demand at a level
	// where its slots' capacities are non-negative.
	num, err := add(demand-fixed, baseT)
	if err != nil {
		return ratio{}, err
	}
	return newRatio(num, capT), nil
}

// freeze fixes the outcome of the level just solved. The nodes that
// cannot reach the sink in the residual graph of the max flow are the
// source side of the maximal min cut: its slots carry exactly θ·C_t in
// every flow at this level, its jobs put their full Cap on each slot
// outside it, and nothing else enters it — so both leave the problem.
// The cut and the frozen jobs' flows go into the skyline as the level's
// proof.
func (s *newton) freeze(theta ratio) error {
	for v := range s.stuck {
		s.stuck[v] = true
	}
	sink := s.sink()
	s.stuck[sink] = false
	s.back = append(s.back[:0], sink)
	for head := 0; head < len(s.back); head++ {
		v := s.back[head]
		for _, e := range s.adj[s.adjStart[v]:s.adjStart[v+1]] {
			if u := s.to[e]; s.res[e^1] > 0 && s.stuck[u] {
				s.stuck[u] = false
				s.back = append(s.back, u)
			}
		}
	}

	level := float64(theta.num) / float64(theta.den)
	lv := Level{Num: theta.num, Den: theta.den}
	for j, on := range s.jobActive {
		if !on || !s.stuck[s.jobNode(j)] {
			continue
		}
		lv.Jobs = append(lv.Jobs, j)
		job := s.jobs[j]
		for i, t := range s.arcs(j) {
			if !s.slotActive[t] {
				continue
			}
			s.out.Alloc[j][int64(t)-job.Rel] = s.res[(s.arcStart[j]+int32(2*i))^1]
			if !s.stuck[s.slotNode(int(t))] {
				// The flow is the whole arc: it crosses the cut.
				s.base[t] += job.Cap
			}
		}
		s.out.Den[j] = s.den
		s.jobActive[j] = false
		s.activeJobs--
	}
	for t, on := range s.slotActive {
		if on && s.stuck[s.slotNode(t)] {
			lv.Slots = append(lv.Slots, t)
			s.out.Load[t] = level * float64(s.caps[t])
			s.slotActive[t] = false
		}
	}
	if len(lv.Slots) == 0 {
		return fmt.Errorf("flow: no slot is tight at level %d/%d (internal error)", theta.num, theta.den)
	}
	s.out.Levels = append(s.out.Levels, lv)
	return nil
}

// less compares by cross-multiplying in 128 bits, so it cannot overflow.
func (a ratio) less(b ratio) bool {
	lhi, llo := bits.Mul64(uint64(a.num), uint64(b.den))
	rhi, rlo := bits.Mul64(uint64(b.num), uint64(a.den))
	return lhi < rhi || lhi == rhi && llo < rlo
}

func (a ratio) max(b ratio) ratio {
	if a.less(b) {
		return b
	}
	return a
}
