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
// The stages are two questions about one network, built once per window
// set: stage B is a method on stage A's answer (Routing.LexMinMax), which
// starts from a zero flow on the graph Shortfall laid out.
//
// All arithmetic that decides anything is exact: a level is the rational
// θ = num/den read off an integer cut, the network is scaled by den so
// every capacity and flow is an int64, and tight sets come from residual
// reachability on that integer flow — no float is ever compared against
// a tolerance. A product or sum that does not fit an int64 is reported
// as ErrOverflow, never wrapped. Everything is slices walked in job-slice
// then slot order, so the same input gives the same output bit for bit.
//
// Both stages certify their answers (McConnell et al., "Certifying
// algorithms", 2011): each hands back, as plain data, the min cuts its
// labels already marked, and the flow in exact integer units. A checker
// that knows only the instance confirms from them that the answer is
// feasible and that no better one exists (oracle.CheckSolution,
// oracle.CheckRouting).
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
	// ArcsScanned is the number of arcs the searches examined: the
	// measure of what a call walked, whatever the machine.
	ArcsScanned int
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

	level []int32 // BFS distance from the search's root; -1 unlabeled, retired never relabeled
	queue []int32
	next  []int32 // Dinic's current-arc cursor into adj
	goal  int32   // the level push delivers at: the sink's, or in a reroute the first giver's
	open  []bool  // per job: Shortfall has not walked it yet, so a reroute may take its flow
	work  Work
}

// retired is the level of a node Shortfall has retired: above every BFS
// distance, so no search labels it and no push enters it.
const retired = math.MaxInt32

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

// root clears the last search's labels and starts a new one at u.
func (g *network) root(u int32) {
	for _, v := range g.queue {
		g.level[v] = -1
	}
	g.queue = append(g.queue[:0], u)
	g.level[u] = 0
}

// search labels nodes with their BFS distance from the source over
// residual arcs and reports whether the sink was reached. It stops at
// the sink: every node nearer than the sink is labeled by then, and a
// blocking flow uses no other. When it fails, the labeled nodes are
// exactly the source side of the minimal min cut.
func (g *network) search() bool {
	g.root(0)
	sink := g.sink()
	for head := 0; head < len(g.queue); head++ {
		u := g.queue[head]
		arcs := g.adj[g.adjStart[u]:g.adjStart[u+1]]
		for i, e := range arcs {
			v := g.to[e]
			if g.res[e] > 0 && g.level[v] < 0 {
				g.level[v] = g.level[u] + 1
				g.queue = append(g.queue, v)
				if v == sink {
					g.work.ArcsScanned += i + 1
					g.goal = g.level[v]
					return true
				}
			}
		}
		g.work.ArcsScanned += len(arcs)
	}
	return false
}

// reach labels nodes with their BFS distance from job node u over
// residual arcs, entering neither the source nor the sink, and reports
// whether it reached a giver. It finishes the level the first giver is on,
// which becomes the goal. When it fails, the labeled nodes are all that u
// can reach.
func (g *network) reach(u int32) bool {
	g.root(u)
	g.goal = retired
	sink := g.sink()
	for head := 0; head < len(g.queue); head++ {
		u := g.queue[head]
		if g.level[u] >= g.goal {
			break
		}
		arcs := g.adj[g.adjStart[u]:g.adjStart[u+1]]
		for _, e := range arcs {
			v := g.to[e]
			if g.res[e] > 0 && g.level[v] < 0 && v != 0 && v != sink {
				g.level[v] = g.level[u] + 1
				g.queue = append(g.queue, v)
				if g.goal == retired && g.giver(v) >= 0 {
					g.goal = g.level[v]
				}
			}
		}
		g.work.ArcsScanned += len(arcs)
	}
	return g.goal != retired
}

// giver is the reverse of the source arc of the job at node v when that
// job is open and has flow on it to give back, -1 otherwise.
func (g *network) giver(v int32) int32 {
	j := int(v) - 1
	if j < 0 || j >= len(g.jobs) || g.open == nil || !g.open[j] || g.srcEdge[j] < 0 {
		return -1
	}
	if e := g.srcEdge[j] ^ 1; g.res[e] > 0 {
		return e
	}
	return -1
}

// push sends up to limit units from u along the level graph to the goal
// level and returns what arrived: the sink takes all of it, a giver as
// much as its source arc carries, which it gives up, and any other node
// there nothing.
func (g *network) push(u int32, limit int64) int64 {
	if g.level[u] == g.goal {
		if u != g.sink() {
			e := g.giver(u)
			if e < 0 {
				return 0
			}
			limit = min(limit, g.res[e])
			g.res[e] -= limit
			g.res[e^1] += limit
		}
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
		g.rewind()
		g.push(0, math.MaxInt64)
	}
}

// rewind resets the current-arc cursors of the nodes the search labeled.
func (g *network) rewind() {
	for _, v := range g.queue {
		g.next[v] = g.adjStart[v]
	}
}

// Routing is Shortfall's answer with the cuts that prove it.
type Routing struct {
	// Short[j] is the demand of job j left unrouted.
	Short []int64
	// JobCut[j] and SlotCut[t] are the position in the order from which
	// job j or slot t is on the source side of the proving cut, -1 for
	// never. The nodes on it by the position of a job that came up short
	// are a min cut of the network of the jobs up to that one, so their
	// capacity at the hard slot capacities is what those jobs routed; all
	// the nodes on it are a min cut of the final flow.
	JobCut, SlotCut []int
	Work            Work
	g               *network // the network it was found on, which LexMinMax reuses
}

// Shortfall is the planner's stage A: the max flow at the hard slot
// capacities, and per job the demand it leaves unrouted. The split is the
// one that letting jobs in one at a time in the given order (indices into
// jobs, each exactly once), each routed to its own maximum before the
// next and never giving flow back, would make: whatever cannot fit lands
// on the jobs latest in the order, and the split is a function of the
// input alone. The total routed is the max flow whatever the order.
//
// One max flow opens every source arc at once. Then the order is walked:
// a job left short takes flow back from jobs later in it, along residual
// paths that enter neither the source nor the sink, until it is saturated
// or reaches none, and its arc closes. The flow stays maximum, so no
// residual path leads from a job still short to the sink, nor, once it is
// done, to a later job's flow: it routed exactly what it adds to the max
// flow of the jobs before it, the greedy base of the routing polymatroid,
// which is unique.
//
// The proof is read off the labels of a short job's last, failed search:
// they are the source side, the source aside, of the minimal min cut of
// the network of the jobs up to it. A node that cannot reach the sink
// never can again: no residual arc leaves the set of such nodes, so no
// path enters it and none reopens an arc out of it. So the union of those
// sides stays closed in the residual graph, every arc leaving it stays
// saturated, and once a node has joined the cut it is retired: no later
// search labels it. That changes no later level or push, and spares the
// searches of a congested instance from re-walking the graph already cut
// off, once per short job.
func Shortfall(caps []int64, jobs []Job, order []int) (*Routing, error) {
	g, err := newNetwork(caps, jobs)
	if err != nil {
		return nil, err
	}
	if len(order) != len(jobs) {
		return nil, fmt.Errorf("flow: order names %d jobs, instance has %d", len(order), len(jobs))
	}
	open := make([]bool, len(jobs))
	for _, j := range order {
		if j < 0 || j >= len(jobs) || open[j] {
			return nil, fmt.Errorf("flow: order entry %d out of range or repeated", j)
		}
		open[j] = true
	}
	for j, slots := range g.arcSlot {
		for i := range slots {
			g.res[g.arcStart[j]+int32(2*i)] = jobs[j].Cap
		}
		if e := g.srcEdge[j]; e >= 0 {
			g.res[e] = jobs[j].Demand
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
		g:       g,
	}
	for i := range r.JobCut {
		r.JobCut[i] = -1
	}
	for i := range r.SlotCut {
		r.SlotCut[i] = -1
	}
	g.work.MaxFlows = 1
	g.augment()
	g.open = open
	for pos, j := range order {
		open[j] = false
		e := g.srcEdge[j]
		if e < 0 || g.res[e] == 0 {
			continue
		}
		for g.res[e] > 0 && g.reach(g.jobNode(j)) {
			g.rewind()
			got := g.push(g.jobNode(j), g.res[e])
			g.res[e] -= got
			g.res[e^1] += got
		}
		if g.res[e] > 0 {
			g.joinCut(r, pos)
			g.retire()
		}
		// Close the arc: what the job routed stays with it.
		r.Short[j], g.res[e] = g.res[e], 0
	}
	r.Work = g.work
	return r, nil
}

// joinCut puts the nodes the last, failed search labeled on the source
// side of r's cut from position pos on.
func (g *network) joinCut(r *Routing, pos int) {
	for _, v := range g.queue {
		if j := int(v) - 1; j >= 0 && j < len(g.jobs) {
			if r.JobCut[j] < 0 {
				r.JobCut[j] = pos
			}
		} else if t := j - len(g.jobs); t >= 0 && t < len(g.caps) && r.SlotCut[t] < 0 {
			r.SlotCut[t] = pos
		}
	}
}

// retire takes the nodes the last, failed reach labeled out of every later
// search: none of them can reach the sink again.
func (g *network) retire() {
	for _, v := range g.queue {
		g.level[v] = retired
	}
	g.queue = g.queue[:0]
}

// Skyline is the lexicographic min-max flow of LexMinMax, with the
// levels and cuts that prove it optimal.
type Skyline struct {
	// Load[t] is the load the flow puts on slot t.
	Load []float64
	// Alloc[j][i] is what job j places in slot Rel+i of its window, in
	// units of 1/Den[j] (nil for a job without demand).
	Alloc [][]int64
	Den   []int64
	// Levels are the levels solved, highest first.
	Levels []Level
	Work   Work
}

// Level is one level of the skyline and its proof. Slots and Jobs, in
// ascending order, are the source side of the maximal min cut of the
// level's network at θ = Num/Den: the jobs not frozen at a level above
// routing their demand into the slots not frozen above, each slot t
// taking up to θ·C_t less what jobs frozen above must put there. Its
// capacity at θ equals that demand, so no lower level routes it, and
// every slot in Slots carries exactly θ·C_t.
type Level struct {
	Num, Den    int64
	Slots, Jobs []int
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
	return (&Routing{Short: make([]int64, len(jobs)), g: g}).LexMinMax(maxLevels)
}

// LexMinMax is stage B on the network stage A built: the skyline of the
// demand r routed, each job's Demand less its Short, over the caps and
// jobs Shortfall was given, which must not have changed since. It starts
// from a zero flow, so it answers as the free LexMinMax does on those
// demands, bit for bit, but for the arcs scanned when a job is wholly
// short: its arcs stay in the graph, empty, and the searches step over
// them.
func (r *Routing) LexMinMax(maxLevels int) (*Skyline, error) {
	g := r.g
	clear(g.res)
	for v := range g.level {
		g.level[v] = -1
	}
	g.queue, g.open, g.work = g.queue[:0], nil, Work{}
	s := &lexState{
		network:    g,
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
	// arc to it.
	for j, job := range g.jobs {
		if s.demand[j] = job.Demand - r.Short[j]; s.demand[j] > 0 {
			s.jobActive[j] = true
			s.activeJobs++
			s.out.Alloc[j] = make([]int64, job.Dl-job.Rel)
			for _, t := range g.arcSlot[j] {
				s.slotActive[t] = true
			}
		}
	}
	for s.activeJobs > 0 {
		if err := s.solveLevel(maxLevels > 0 && len(s.out.Levels)+1 >= maxLevels); err != nil {
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

// lexState is LexMinMax's working state: each job's demand, the jobs and
// slots still being levelled, and base[t], the load that jobs frozen at
// earlier levels are forced to put on a still-active slot t (their Cap —
// those arcs cross the min cut that froze them).
type lexState struct {
	*network
	demand     []int64
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
			if full, err = mul(s.demand[j], theta.den); err != nil {
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
			if fixed, err = add(fixed, s.demand[j]); err != nil {
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
// With last set the whole flow is final. The cut and the frozen jobs'
// flows go into the skyline as the level's proof.
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
	lv := Level{Num: theta.num, Den: theta.den}
	for j, on := range s.jobActive {
		stuck := s.stuck[s.jobNode(j)]
		if !on || !(last || stuck) {
			continue
		}
		if stuck {
			lv.Jobs = append(lv.Jobs, j)
		}
		job := s.jobs[j]
		for i, t := range s.arcSlot[j] {
			if !s.slotActive[t] {
				continue
			}
			s.out.Alloc[j][int64(t)-job.Rel] = s.res[(s.arcStart[j]+int32(2*i))^1]
			if !last && !s.stuck[s.slotNode(int(t))] {
				// The flow is the whole arc: it crosses the cut.
				s.base[t] += job.Cap
			}
		}
		s.out.Den[j] = s.den
		s.jobActive[j] = false
		s.activeJobs--
	}
	for t, on := range s.slotActive {
		if !on {
			continue
		}
		switch {
		case s.stuck[s.slotNode(t)]:
			lv.Slots = append(lv.Slots, t)
			s.out.Load[t] = level * float64(s.caps[t])
		case last:
			// base[t] is untouched on this path: it is what earlier
			// levels forced here, and the flow holds the rest.
			s.out.Load[t] = float64(s.base[t]) + float64(s.res[s.sinkEdge[t]^1])/den
		default:
			continue
		}
		s.slotActive[t] = false
	}
	if len(lv.Slots) == 0 {
		return fmt.Errorf("flow: no slot is tight at level %d/%d (internal error)", theta.num, theta.den)
	}
	s.out.Levels = append(s.out.Levels, lv)
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
