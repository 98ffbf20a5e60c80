// Package flow is FlowTime's planner core: exact parametric max-flow on
// the bipartite job→slot network of the paper's stage-2 problem, for one
// resource kind at a time.
//
// The network has a source arc per job (capacity Demand), an arc from a
// job to every positive-capacity slot of its window (capacity Cap, the
// parallelism bound), and a sink arc per slot. With sink capacities at
// the hard slot capacities, the max-flow deficiency is the demand that
// cannot fit (Shortfall, the planner's stage A). With sink capacities
// θ·C_t, the slot-load vectors of the flows that route all demand form
// the base polytope of a polymatroid, whose lexicographically optimal
// base — the paper's Eq. 1 objective — is unique (Megiddo 1974, Fujishige
// 1980) and is found level by level (LexMinMax, stage B): discrete
// Newton on θ from min cuts, freeze the slots that cannot reach the sink
// in the residual graph at the optimum, recurse on the rest
// (Gallo–Grigoriadis–Tarjan 1989).
//
// All arithmetic that decides anything is exact: a level is the rational
// θ = num/den read off an integer cut, the network is scaled by den so
// every capacity and flow is an int64, and tight sets come from residual
// reachability on that integer flow — no float is ever compared against
// a tolerance. A product or sum that does not fit an int64 is reported
// as ErrOverflow, never wrapped. Everything is slices walked in job-slice
// then slot order, so the same input gives the same output bit for bit.
package flow

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrOverflow reports that a scaled capacity, a demand total or a cut
// sum does not fit an int64. Callers fall back to a planner that needs
// no scaling.
var ErrOverflow = errors.New("flow: integer overflow")

// ErrInfeasible reports that the demand cannot be routed at any level:
// some job set needs more than its windows' parallelism caps admit on
// positive-capacity slots.
var ErrInfeasible = errors.New("flow: demand does not fit its windows at any level")

// Job is one windowed demand on a single resource kind.
type Job struct {
	// Demand is the volume to place; a job with zero demand is ignored.
	Demand int64
	// Rel and Dl bound the window [Rel, Dl) in slot indices.
	Rel, Dl int64
	// Cap is the most the job may take in one slot.
	Cap int64
}

// Work counts what a call cost.
type Work struct {
	// MaxFlows is the number of max-flow computations started from a
	// zero flow, Resumed the number continued from the flow of the Newton
	// step or the level before.
	MaxFlows, Resumed int
	// Augmentations is the number of augmenting paths pushed.
	Augmentations int
}

// network is the residual graph. Node 0 is the source, 1..n the jobs,
// n+1..n+m the slots, n+m+1 the sink. Edges e and e^1 are an arc and its
// reverse; res holds residual capacities, so the flow on a forward arc e
// is res[e^1].
type network struct {
	caps []int64
	jobs []Job

	adjStart []int32 // CSR: the edges out of node v are adj[adjStart[v]:adjStart[v+1]]
	adj      []int32
	to       []int32
	res      []int64

	srcEdge  []int32   // per job; -1 when the job has no demand
	sinkEdge []int32   // per slot; -1 when no job can use the slot
	arcStart []int32   // per job: its first job→slot edge; the rest follow two ids apart
	arcSlot  [][]int32 // per job: the slots those edges lead to, ascending

	level []int32
	queue []int32
	next  []int32 // Dinic's current-arc cursor into adj
	work  Work
}

func (g *network) sink() int32          { return int32(len(g.jobs) + len(g.caps) + 1) }
func (g *network) jobNode(j int) int32  { return int32(1 + j) }
func (g *network) slotNode(t int) int32 { return int32(1 + len(g.jobs) + t) }

// newNetwork validates the instance and lays out the graph with every
// residual capacity zero.
func newNetwork(caps []int64, jobs []Job) (*network, error) {
	for t, c := range caps {
		if c < 0 {
			return nil, fmt.Errorf("flow: slot %d has negative capacity %d", t, c)
		}
	}
	g := &network{
		caps:     caps,
		jobs:     jobs,
		srcEdge:  make([]int32, len(jobs)),
		arcStart: make([]int32, len(jobs)),
		arcSlot:  make([][]int32, len(jobs)),
		sinkEdge: make([]int32, len(caps)),
	}
	nodes := len(jobs) + len(caps) + 2
	deg := make([]int32, nodes)
	addEdge := func(u, v int32) int32 {
		e := int32(len(g.to))
		g.to = append(g.to, v, u)
		deg[u]++
		deg[v]++
		return e
	}
	for j, job := range jobs {
		g.srcEdge[j] = -1
		if job.Demand < 0 || job.Cap < 0 {
			return nil, fmt.Errorf("flow: job %d has negative demand %d or cap %d", j, job.Demand, job.Cap)
		}
		if job.Rel < 0 || job.Dl > int64(len(caps)) || job.Rel >= job.Dl {
			return nil, fmt.Errorf("flow: job %d window [%d, %d) invalid for %d slots", j, job.Rel, job.Dl, len(caps))
		}
		if job.Demand == 0 {
			continue
		}
		if len(g.to) > math.MaxInt32/2 {
			return nil, fmt.Errorf("%w: more than %d arcs", ErrOverflow, math.MaxInt32/4)
		}
		g.srcEdge[j] = addEdge(0, g.jobNode(j))
		g.arcStart[j] = int32(len(g.to))
		for t := job.Rel; t < job.Dl; t++ {
			if caps[t] > 0 {
				addEdge(g.jobNode(j), g.slotNode(int(t)))
				g.arcSlot[j] = append(g.arcSlot[j], int32(t))
			}
		}
	}
	for t := range caps {
		g.sinkEdge[t] = -1
		if deg[g.slotNode(t)] > 0 {
			g.sinkEdge[t] = addEdge(g.slotNode(t), g.sink())
		}
	}

	g.adjStart = make([]int32, nodes+1)
	for v := 0; v < nodes; v++ {
		g.adjStart[v+1] = g.adjStart[v] + deg[v]
	}
	g.adj = make([]int32, len(g.to))
	fill := append([]int32(nil), g.adjStart[:nodes]...)
	for e := range g.to {
		u := g.to[e^1]
		g.adj[fill[u]] = int32(e)
		fill[u]++
	}
	g.res = make([]int64, len(g.to))
	g.level = make([]int32, nodes)
	for v := range g.level {
		g.level[v] = -1
	}
	g.queue = make([]int32, 0, nodes)
	g.next = make([]int32, nodes)
	return g, nil
}

// search labels nodes with their BFS distance from the source over
// residual arcs and reports whether the sink was reached. It stops at
// the sink: every node nearer than the sink is labeled by then, and a
// blocking flow uses no other. When it fails, the labeled nodes are
// exactly the source side of the minimal min cut.
func (g *network) search() bool {
	for _, v := range g.queue {
		g.level[v] = -1
	}
	g.queue = append(g.queue[:0], 0)
	g.level[0] = 0
	sink := g.sink()
	for head := 0; head < len(g.queue); head++ {
		u := g.queue[head]
		for _, e := range g.adj[g.adjStart[u]:g.adjStart[u+1]] {
			v := g.to[e]
			if g.res[e] > 0 && g.level[v] < 0 {
				g.level[v] = g.level[u] + 1
				g.queue = append(g.queue, v)
				if v == sink {
					return true
				}
			}
		}
	}
	return false
}

// push sends up to limit units from u toward the sink along the level
// graph and returns what arrived.
func (g *network) push(u int32, limit int64) int64 {
	if u == g.sink() {
		g.work.Augmentations++
		return limit
	}
	sent := int64(0)
	for ; g.next[u] < g.adjStart[u+1]; g.next[u]++ {
		e := g.adj[g.next[u]]
		v := g.to[e]
		if g.res[e] <= 0 || g.level[v] != g.level[u]+1 {
			continue
		}
		got := g.push(v, min(limit-sent, g.res[e]))
		g.res[e] -= got
		g.res[e^1] += got
		sent += got
		if sent == limit {
			break // keep the cursor on e: it may have residual left
		}
	}
	return sent
}

// augment runs Dinic's algorithm from the current flow to a maximum one.
// Afterwards the labels of the last, failed search mark the min cut.
func (g *network) augment() {
	for g.search() {
		for _, v := range g.queue {
			g.next[v] = g.adjStart[v]
		}
		g.push(0, math.MaxInt64)
	}
}

// Shortfall is the planner's stage A: the max flow at the hard slot
// capacities, and per job the demand it leaves unrouted. Jobs are let in
// one at a time in the given order (indices into jobs, each exactly
// once), each augmented to its own maximum before the next; an
// augmenting path never takes flow back from a source arc, so whatever
// cannot fit lands on the jobs latest in the order and the split is a
// function of the input alone. The total routed is the max flow whatever
// the order.
func Shortfall(caps []int64, jobs []Job, order []int) (short []int64, work Work, err error) {
	g, err := newNetwork(caps, jobs)
	if err != nil {
		return nil, Work{}, err
	}
	if len(order) != len(jobs) {
		return nil, Work{}, fmt.Errorf("flow: order names %d jobs, instance has %d", len(order), len(jobs))
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
	short = make([]int64, len(jobs))
	seen := make([]bool, len(jobs))
	g.work.MaxFlows = 1
	for _, j := range order {
		if j < 0 || j >= len(jobs) || seen[j] {
			return nil, Work{}, fmt.Errorf("flow: order entry %d out of range or repeated", j)
		}
		seen[j] = true
		e := g.srcEdge[j]
		if e < 0 {
			continue
		}
		g.res[e] = jobs[j].Demand
		g.augment()
		// Close the arc: no later augmentation can open a path for a job
		// that came up short, so later searches need not start from it.
		short[j], g.res[e] = g.res[e], 0
	}
	return short, g.work, nil
}

// Skyline is the lexicographic min-max flow of LexMinMax.
type Skyline struct {
	// Load[t] is the load the flow puts on slot t.
	Load []float64
	// Level[t] is Load[t]/caps[t], the normalized load; slots frozen at
	// the same level carry the identical float. Zero for slots no job
	// can use.
	Level []float64
	// Usable[t] marks the slots of positive capacity inside the window of
	// some job with demand — the slots that have a level at all.
	Usable []bool
	// Alloc[j][i] is what job j places in slot Rel+i of its window (nil
	// for a job without demand).
	Alloc [][]float64
	// Levels is the number of levels solved exactly, and Exact[t] marks
	// the slots frozen at one of them. With maxLevels = 0 every slot a
	// job can use is exact.
	Levels int
	Exact  []bool
	Work   Work
}

// LexMinMax is the planner's stage B. It routes every job's whole demand
// so that the descending-sorted vector of normalized slot loads
// Load[t]/caps[t] is lexicographically smallest. Slot capacities
// normalize, they do not bound: a level may exceed 1. maxLevels caps the
// levels solved (0 = all): the top maxLevels levels and the slots frozen
// at them are exactly those of the full optimum, and the slots below
// take the loads of the flow that proved the last level, all at or under
// it. ErrInfeasible means no level routes the demand.
func LexMinMax(caps []int64, jobs []Job, maxLevels int) (*Skyline, error) {
	g, err := newNetwork(caps, jobs)
	if err != nil {
		return nil, err
	}
	s := &lexState{
		network:    g,
		jobActive:  make([]bool, len(jobs)),
		slotActive: make([]bool, len(caps)),
		base:       make([]int64, len(caps)),
		stuck:      make([]bool, len(g.level)),
		out: &Skyline{
			Load:   make([]float64, len(caps)),
			Level:  make([]float64, len(caps)),
			Alloc:  make([][]float64, len(jobs)),
			Exact:  make([]bool, len(caps)),
			Usable: make([]bool, len(caps)),
		},
	}
	for j := range jobs {
		if g.srcEdge[j] >= 0 {
			s.jobActive[j] = true
			s.activeJobs++
			s.out.Alloc[j] = make([]float64, jobs[j].Dl-jobs[j].Rel)
		}
	}
	for t, e := range g.sinkEdge {
		s.slotActive[t] = e >= 0
		s.out.Usable[t] = e >= 0
	}
	for s.activeJobs > 0 {
		if err := s.solveLevel(maxLevels > 0 && s.out.Levels+1 >= maxLevels); err != nil {
			return nil, err
		}
	}
	// A slot still active once every job is frozen carries only what
	// frozen jobs were forced to put there.
	for t, on := range s.slotActive {
		if on {
			s.out.Load[t] = float64(s.base[t])
			s.out.Level[t] = s.out.Load[t] / float64(caps[t])
			s.out.Exact[t] = true
		}
	}
	s.out.Work = g.work
	return s.out, nil
}

// lexState is LexMinMax's working state: the jobs and slots still being
// levelled, and base[t], the load that jobs frozen at earlier levels are
// forced to put on a still-active slot t (their Cap — those arcs cross
// the min cut that froze them).
type lexState struct {
	*network
	jobActive  []bool
	slotActive []bool
	activeJobs int
	base       []int64
	den        int64   // the flow is in units of 1/den; 0 before the first max-flow
	stuck      []bool  // per node: cannot reach the sink in the residual graph
	back       []int32 // freeze's own BFS queue; search owns network.queue
	out        *Skyline
}

// solveLevel finds the smallest θ at which the active jobs' demand
// routes through the active slots' sink capacities θ·C_t − base_t and
// freezes the maximal tight set at it — or, with last set, everything.
func (s *lexState) solveLevel(last bool) error {
	var demand, capSum, baseSum int64
	var err error
	for j, on := range s.jobActive {
		if on {
			if demand, err = add(demand, s.jobs[j].Demand); err != nil {
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
		s.augment()
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
	s.out.Levels++
	return s.freeze(theta, last)
}

// setCaps scales the active subnetwork by theta's denominator and
// returns the scaled demand. It keeps as much of the flow already there
// as the new capacities admit, so a Newton step resumes from the step
// before and a level from the level above: each job→slot flow is
// rescaled to the new denominator rounding down, which keeps it inside
// its arc and — the level only having risen — its sink capacity; a level
// that starts lower than the last one ended trims the slots now over
// capacity; and the source and sink flows are re-summed from the arcs.
func (s *lexState) setCaps(theta ratio, demand int64) (want int64, err error) {
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
			if full, err = mul(job.Demand, theta.den); err != nil {
				return 0, err
			}
		}
		sent := int64(0)
		for i, t := range s.arcSlot[j] {
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
func (s *lexState) cutLevel(demand int64) (ratio, error) {
	var fixed, capT, baseT int64
	var err error
	for j, on := range s.jobActive {
		if !on {
			continue
		}
		if s.level[s.jobNode(j)] < 0 {
			if fixed, err = add(fixed, s.jobs[j].Demand); err != nil {
				return ratio{}, err
			}
			continue
		}
		for _, t := range s.arcSlot[j] {
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
// With last set the whole flow is final.
func (s *lexState) freeze(theta ratio, last bool) error {
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
	den := float64(s.den)
	for j, on := range s.jobActive {
		if !on || !(last || s.stuck[s.jobNode(j)]) {
			continue
		}
		job := s.jobs[j]
		for i, t := range s.arcSlot[j] {
			if !s.slotActive[t] {
				continue
			}
			x := s.res[(s.arcStart[j]+int32(2*i))^1]
			s.out.Alloc[j][int64(t)-job.Rel] = float64(x) / den
			if !last && !s.stuck[s.slotNode(int(t))] {
				// x is the whole arc: it crosses the cut.
				s.base[t] += job.Cap
			}
		}
		s.jobActive[j] = false
		s.activeJobs--
	}
	frozen := 0
	for t, on := range s.slotActive {
		if !on {
			continue
		}
		switch {
		case s.stuck[s.slotNode(t)]:
			s.out.Level[t] = level
			s.out.Load[t] = level * float64(s.caps[t])
			s.out.Exact[t] = true
		case last:
			// base[t] is untouched on this path: it is what earlier
			// levels forced here, and the flow holds the rest.
			s.out.Load[t] = float64(s.base[t]) + float64(s.res[s.sinkEdge[t]^1])/den
			s.out.Level[t] = s.out.Load[t] / float64(s.caps[t])
		default:
			continue
		}
		s.slotActive[t] = false
		frozen++
	}
	if frozen == 0 {
		return fmt.Errorf("flow: no slot is tight at level %d/%d (internal error)", theta.num, theta.den)
	}
	return nil
}

// ratio is a non-negative rational in lowest terms with den > 0.
type ratio struct{ num, den int64 }

func newRatio(num, den int64) ratio {
	a, b := num, den
	for b != 0 {
		a, b = b, a%b
	}
	return ratio{num / a, den / a}
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

// mul and add are checked arithmetic on non-negative operands.
func mul(a, b int64) (int64, error) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, fmt.Errorf("%w: %d * %d", ErrOverflow, a, b)
	}
	return int64(lo), nil
}

func add(a, b int64) (int64, error) {
	if a > math.MaxInt64-b {
		return 0, fmt.Errorf("%w: %d + %d", ErrOverflow, a, b)
	}
	return a + b, nil
}

// mulDiv returns ⌊x·a/b⌋ for non-negative x, a and positive b, given
// that the quotient fits an int64.
func mulDiv(x, a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(x), uint64(a))
	q, _ := bits.Div64(hi, lo, uint64(b))
	return int64(q)
}
