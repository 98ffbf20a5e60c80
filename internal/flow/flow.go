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
// 1980) and is found by decomposition over θ (LexMinMax, stage B).
// Newton steps on θ from min cuts, which peel the levels one at a time
// from the top, are only the tests' reference.
//
// The stages are questions about one network, laid out once per resource
// kind and replan (NewNetwork) on the jobs' widest windows. A routing gives
// each job a deadline inside its window, opens its arcs into the slots
// before that deadline and keeps every other arc at a zero residual, so a
// job's window cut short — the deadline slack — is the same network with
// arcs closed, not another one. Stage A routes on it as often as the
// caller asks, each time from a zero flow (Network.Shortfall), and stage B
// is a method on the routing kept (Routing.LexMinMax), which starts from a
// zero flow on that routing's open arcs and resumes a flow only where
// capacities grow, above a cut.
//
// All arithmetic that decides anything is exact: a level is the rational
// θ = num/den of two integer sums, the network is scaled by den so
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
	"slices"
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
	// zero flow, Resumed the number continued from a parent's flow: in
	// stage B, the parts above a cut.
	MaxFlows, Resumed int
	// Augmentations is the number of augmenting paths pushed.
	Augmentations int
	// ArcsScanned is the number of arcs the searches examined: the
	// measure of what a call walked, whatever the machine.
	ArcsScanned int
}

// Network is one resource kind's job→slot network as a residual graph.
// Node 0 is the source, 1..n the jobs, n+1..n+m the slots, n+m+1 the sink.
// Edges e and e^1 are an arc and its reverse; res holds residual
// capacities, so the flow on a forward arc e is res[e^1]. A Network is not
// safe for concurrent use: each routing and skyline on it overwrites it.
type Network struct {
	caps []int64
	jobs []Job

	adjStart []int32 // CSR: the edges out of node v are adj[adjStart[v]:adjStart[v+1]]
	adjEnd   []int32 // per node: the end of the edges the searches walk, short of a job's closed arcs
	adj      []int32
	to       []int32
	res      []int64

	srcEdge  []int32   // per job; -1 when the job has no demand
	sources  []int32   // the jobs with demand, ascending
	sinkEdge []int32   // per slot; -1 when no job can use the slot
	arcStart []int32   // per job: its first job→slot edge; the rest follow two ids apart
	arcSlot  [][]int32 // per job: the slots those edges lead to, ascending
	open     []int32   // per job: how many of its arcs, from the first, the routing opened

	level   []int32 // BFS distance from the search's root; -1 unlabeled, retired never relabeled
	queue   []int32
	next    []int32 // Dinic's current-arc cursor into adj
	goal    int32   // the level push delivers at: the sink's, or in a reroute the first giver's
	pending []bool  // per job: Shortfall has not walked it yet, so a reroute may take its flow
	work    Work
}

// retired is the level of a node Shortfall has retired: above every BFS
// distance, so no search labels it and no push enters it.
const retired = math.MaxInt32

func (g *Network) sink() int32          { return int32(len(g.jobs) + len(g.caps) + 1) }
func (g *Network) jobNode(j int) int32  { return int32(1 + j) }
func (g *Network) slotNode(t int) int32 { return int32(1 + len(g.jobs) + t) }

// NewNetwork validates the instance and lays out its network, every
// residual capacity zero: a source arc per job with demand, an arc from it
// to each positive-capacity slot of its window, and a sink arc per slot
// some job reaches. The network keeps caps and jobs, which must not change
// while it is in use.
func NewNetwork(caps []int64, jobs []Job) (*Network, error) {
	for t, c := range caps {
		if c < 0 {
			return nil, fmt.Errorf("flow: slot %d has negative capacity %d", t, c)
		}
	}
	// live[t] counts the positive-capacity slots before t: a job's arcs
	// number live[Dl]-live[Rel], so every array is sized before it is filled.
	live := make([]int32, len(caps)+1)
	for t, c := range caps {
		live[t+1] = live[t] + int32(min(c, 1))
	}
	arcs := 0 // job→slot
	for j, job := range jobs {
		if job.Demand < 0 || job.Cap < 0 {
			return nil, fmt.Errorf("flow: job %d has negative demand %d or cap %d", j, job.Demand, job.Cap)
		}
		if job.Rel < 0 || job.Dl > int64(len(caps)) || job.Rel >= job.Dl {
			return nil, fmt.Errorf("flow: job %d window [%d, %d) invalid for %d slots", j, job.Rel, job.Dl, len(caps))
		}
		if job.Demand > 0 {
			arcs += int(live[job.Dl] - live[job.Rel])
		}
		if len(jobs)+arcs+len(caps) > math.MaxInt32/4 {
			return nil, fmt.Errorf("%w: more than %d arcs", ErrOverflow, math.MaxInt32/4)
		}
	}
	g := &Network{
		caps:     caps,
		jobs:     jobs,
		srcEdge:  make([]int32, len(jobs)),
		arcStart: make([]int32, len(jobs)),
		arcSlot:  make([][]int32, len(jobs)),
		sinkEdge: make([]int32, len(caps)),
		sources:  make([]int32, 0, len(jobs)),
		to:       make([]int32, 0, 2*(len(jobs)+arcs+len(caps))),
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
	slots := make([]int32, 0, arcs) // every job's arcSlot, end to end
	for j, job := range jobs {
		g.srcEdge[j] = -1
		if job.Demand == 0 {
			continue
		}
		g.srcEdge[j] = addEdge(0, g.jobNode(j))
		g.sources = append(g.sources, int32(j))
		g.arcStart[j] = int32(len(g.to))
		from := len(slots)
		for t := job.Rel; t < job.Dl; t++ {
			if caps[t] > 0 {
				addEdge(g.jobNode(j), g.slotNode(int(t)))
				slots = append(slots, int32(t))
			}
		}
		g.arcSlot[j] = slots[from:len(slots):len(slots)]
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
	g.adjEnd = append([]int32(nil), g.adjStart[1:]...)
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
func (g *Network) root(u int32) {
	for _, v := range g.queue {
		g.level[v] = -1
	}
	g.queue = append(g.queue[:0], u)
	g.level[u] = 0
}

// search labels nodes with their BFS distance from the source over
// residual arcs, the source's walked only to jobs, and reports whether the
// sink was reached. It stops at the sink: every node nearer than the sink
// is labeled by then, and a blocking flow uses no other. When it fails,
// the labeled nodes are exactly the source side of the minimal min cut.
func (g *Network) search(jobs []int32) bool {
	g.root(0)
	for _, j := range jobs {
		if g.res[g.srcEdge[j]] > 0 {
			v := g.jobNode(int(j))
			g.level[v] = 1
			g.queue = append(g.queue, v)
		}
	}
	g.work.ArcsScanned += len(jobs)
	sink := g.sink()
	for head := 1; head < len(g.queue); head++ {
		u := g.queue[head]
		arcs := g.adj[g.adjStart[u]:g.adjEnd[u]]
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
func (g *Network) reach(u int32) bool {
	g.root(u)
	g.goal = retired
	sink := g.sink()
	for head := 0; head < len(g.queue); head++ {
		u := g.queue[head]
		if g.level[u] >= g.goal {
			break
		}
		arcs := g.adj[g.adjStart[u]:g.adjEnd[u]]
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
// job is pending and has flow on it to give back, -1 otherwise.
func (g *Network) giver(v int32) int32 {
	j := int(v) - 1
	if j < 0 || j >= len(g.jobs) || g.pending == nil || !g.pending[j] || g.srcEdge[j] < 0 {
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
func (g *Network) push(u int32, limit int64) int64 {
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
	// No push below u comes back to u, so its cursor can live in i.
	sent, next := int64(0), g.level[u]+1
	i, end := g.next[u], g.adjEnd[u]
	for ; i < end; i++ {
		e := g.adj[i]
		if g.res[e] <= 0 || g.level[g.to[e]] != next {
			continue
		}
		got := g.push(g.to[e], min(limit-sent, g.res[e]))
		g.res[e] -= got
		g.res[e^1] += got
		sent += got
		if sent == limit {
			break // keep the cursor on e: it may have residual left
		}
	}
	g.next[u] = i
	return sent
}

// augment runs Dinic's algorithm from the current flow to a maximum one,
// over the source arcs of jobs (Network.sources for all of them, a part's
// jobs in stage B). Afterwards the labels of the last, failed search mark
// the min cut.
func (g *Network) augment(jobs []int32) {
	for g.search(jobs) {
		g.rewind()
		for _, j := range jobs {
			u, e := g.jobNode(int(j)), g.srcEdge[j]
			if g.level[u] == 1 && g.res[e] > 0 {
				got := g.push(u, g.res[e])
				g.res[e] -= got
				g.res[e^1] += got
			}
		}
	}
}

// rewind resets the current-arc cursors of the nodes the search labeled.
func (g *Network) rewind() {
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
	g               *Network // the network it was found on, which LexMinMax reuses
	open            []int32  // per job, the arcs its deadline opened, which LexMinMax opens again
}

// Shortfall is the planner's stage A on a network laid out for it alone:
// NewNetwork, then Network.Shortfall with every arc open.
func Shortfall(caps []int64, jobs []Job, order []int) (*Routing, error) {
	g, err := NewNetwork(caps, jobs)
	if err != nil {
		return nil, err
	}
	return g.Shortfall(order, nil)
}

// Shortfall is the planner's stage A: the max flow at the hard slot
// capacities, and per job the demand it leaves unrouted. The split is the
// one that letting jobs in one at a time in the given order (indices into
// the network's jobs, each exactly once), each routed to its own maximum
// before the next and never giving flow back, would make: whatever cannot
// fit lands on the jobs latest in the order, and the split is a function
// of the input alone. The total routed is the max flow whatever the order.
//
// Job j is open only to its arcs into the slots before its deadline dl[j],
// which lies in [Rel, Dl] (every arc when dl is nil); the rest keep a zero
// residual. A job whose window is cut short at slot d, given deadline d,
// routes as it would on a network laid out for the cut window, and a job
// whose deadline is its release opens no arc and routes nothing. So a
// network routes any instance whose windows are prefixes of the ones it
// was laid out for: jobs at the end of the order with no arc open take no
// part but for coming up wholly short, and a slot only closed arcs reach
// is on no cut. A deadline outside the window, or a dl that does not hold
// one per job, is an error. The routing starts from a zero flow whatever
// the network held, and only the arcs scanned tell it from the one found
// on a network laid out for that instance.
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
func (g *Network) Shortfall(order []int, dl []int64) (*Routing, error) {
	jobs := g.jobs
	if len(order) != len(jobs) {
		return nil, fmt.Errorf("flow: order names %d jobs, instance has %d", len(order), len(jobs))
	}
	pending := make([]bool, len(jobs))
	for _, j := range order {
		if j < 0 || j >= len(jobs) || pending[j] {
			return nil, fmt.Errorf("flow: order entry %d out of range or repeated", j)
		}
		pending[j] = true
	}
	arcs, err := g.opened(dl)
	if err != nil {
		return nil, err
	}
	g.reset(arcs)
	for j := range jobs {
		for i := range g.arcs(j) {
			g.res[g.arcStart[j]+int32(2*i)] = jobs[j].Cap
		}
		if e := g.srcEdge[j]; e >= 0 {
			g.res[e] = jobs[j].Demand
		}
	}
	for t, e := range g.sinkEdge {
		if e >= 0 {
			g.res[e] = g.caps[t]
		}
	}
	r := &Routing{
		Short:   make([]int64, len(jobs)),
		JobCut:  make([]int, len(jobs)),
		SlotCut: make([]int, len(g.caps)),
		g:       g,
		open:    arcs,
	}
	for i := range r.JobCut {
		r.JobCut[i] = -1
	}
	for i := range r.SlotCut {
		r.SlotCut[i] = -1
	}
	g.work.MaxFlows = 1
	g.augment(g.sources)
	g.pending = pending
	for pos, j := range order {
		pending[j] = false
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

// opened checks a deadline per job against the network's windows and
// returns how many of each job's arcs it opens, every arc when dl is nil:
// the arcs into slots before dl[j], found by a binary search of arcSlot.
func (g *Network) opened(dl []int64) ([]int32, error) {
	if dl != nil && len(dl) != len(g.jobs) {
		return nil, fmt.Errorf("flow: job %d: deadlines given for %d jobs, instance has %d", min(len(dl), len(g.jobs)), len(dl), len(g.jobs))
	}
	arcs := make([]int32, len(g.jobs))
	for j, slots := range g.arcSlot {
		arcs[j] = int32(len(slots))
		if dl != nil {
			if job := g.jobs[j]; dl[j] < job.Rel || dl[j] > job.Dl {
				return nil, fmt.Errorf("flow: job %d deadline %d outside its window [%d, %d]", j, dl[j], job.Rel, job.Dl)
			}
			n, _ := slices.BinarySearch(slots, int32(dl[j]))
			arcs[j] = int32(n)
		}
	}
	return arcs, nil
}

// reset clears the flow, every label, the queue, the reroute's pending
// set and the work counter, and opens the first open[j] arcs of each job
// j: a routing or a skyline on the network starts from here. A job's edges
// are its source arc's reverse and then its arcs in slot order, so the
// searches stop short of its closed arcs.
func (g *Network) reset(open []int32) {
	clear(g.res)
	for v := range g.level {
		g.level[v] = -1
	}
	for j, e := range g.srcEdge {
		if e >= 0 {
			u := g.jobNode(j)
			g.adjEnd[u] = g.adjStart[u] + 1 + open[j]
		}
	}
	g.queue, g.pending, g.work, g.open = g.queue[:0], nil, Work{}, open
}

// arcs are the slots job j's open arcs lead to, ascending; its i-th arc
// is edge arcStart[j]+2i.
func (g *Network) arcs(j int) []int32 { return g.arcSlot[j][:g.open[j]] }

// joinCut puts the nodes the last, failed search labeled on the source
// side of r's cut from position pos on.
func (g *Network) joinCut(r *Routing, pos int) {
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
func (g *Network) retire() {
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
	// Levels are the levels of the skyline, highest first.
	Levels []Level
	Work   Work
}

// Level is one level of the skyline and its proof. Slots and Jobs, in
// ascending order, are the source side of the maximal min cut of the
// level's network at θ = Num/Den: the jobs on no level above routing their
// demand into the slots on no level above, each slot t taking up to θ·C_t
// less what jobs of levels above must put there. Its capacity at θ equals
// that demand, so no lower level routes it, and every slot in Slots
// carries exactly θ·C_t. The levels end with the lowest that has a job: a
// slot below it carries only what jobs above must put there, and is on
// none.
type Level struct {
	Num, Den    int64
	Slots, Jobs []int
}

// LexMinMax is the planner's stage B. It routes every job's whole demand
// so that the descending-sorted vector of normalized slot loads
// Load[t]/caps[t] is lexicographically smallest. Slot capacities
// normalize, they do not bound: a level may exceed 1. ErrInfeasible means
// no level routes the demand.
func LexMinMax(caps []int64, jobs []Job) (*Skyline, error) {
	g, err := NewNetwork(caps, jobs)
	if err != nil {
		return nil, err
	}
	all, _ := g.opened(nil) // every arc: no deadline to check
	return (&Routing{Short: make([]int64, len(jobs)), g: g, open: all}).LexMinMax()
}

// LexMinMax is stage B on the network stage A routed on: the skyline of
// the demand r routed, each job's Demand less its Short, over the arcs
// into the slots before r's deadline for it. It starts from a zero flow,
// and every arc past those deadlines keeps a zero residual, so it answers
// as the free LexMinMax does on those demands and the windows cut at those
// deadlines, bit for bit, but for the arcs scanned when a job is wholly
// short: a slot's edges from such a job, or from a job's closed arcs, stay
// in the graph, empty, and the searches step over them. Alloc[j] spans job
// j's whole window and is zero from its deadline on; a slot only closed
// arcs reach takes no load. r may be any routing found on the network, the
// last or an earlier one.
//
// The skyline is found by decomposition (Fujishige 1980; the breakpoint
// search of Gallo–Grigoriadis–Tarjan 1989). A part of the problem — some
// jobs and the slots their arcs lead to — is routed once, at its mean
// level θ: its demand and forced load over its capacity. If all of it
// routes with every slot at θ·C_t, the part is one level. Otherwise the
// maximal min cut splits it: the slots on its source side end at or above
// θ and the rest below; the jobs on it put their whole Cap on every slot
// off it, which takes that as forced load, and the jobs off it put nothing
// on a slot on it. Each side is then solved on its own, the upper first,
// from the flow left on it, and the lower from none, so the levels come
// out highest first.
func (r *Routing) LexMinMax() (*Skyline, error) {
	g := r.g
	g.reset(r.open)
	s := &lexState{
		Network: g,
		demand:  make([]int64, len(g.jobs)),
		base:    make([]int64, len(g.caps)),
		in:      make([]bool, len(g.caps)),
		stuck:   make([]bool, len(g.level)),
		out: &Skyline{
			Load:  make([]float64, len(g.caps)),
			Alloc: make([][]int64, len(g.jobs)),
			Den:   make([]int64, len(g.jobs)),
		},
	}
	// The whole problem is the jobs with demand and the slots their open
	// arcs lead to.
	var jobs, slots []int32
	for j, job := range g.jobs {
		if s.demand[j] = job.Demand - r.Short[j]; s.demand[j] > 0 {
			jobs = append(jobs, int32(j))
			s.out.Alloc[j] = make([]int64, job.Dl-job.Rel)
			for _, t := range g.arcs(j) {
				s.in[t] = true
			}
		}
	}
	for t, on := range s.in {
		if on {
			slots = append(slots, int32(t))
			s.in[t] = false
		}
	}
	s.unsettled = len(jobs)
	if err := s.solve(jobs, slots, 0); err != nil {
		return nil, err
	}
	s.out.Work = g.work
	return s.out, nil
}

// lexState is LexMinMax's working state. A part of the problem is a list
// of jobs and a list of slots, each ascending; solving it reorders each
// list in place into its two sides.
type lexState struct {
	*Network
	demand    []int64 // per job: what it has to place on the slots of its part
	base      []int64 // per slot: what jobs of higher levels must put there, their Cap
	in        []bool  // per slot: in the part being routed
	stuck     []bool  // per job and slot node: cannot reach the sink in the part's residual graph; never the source's or the sink's
	back      []int32 // the stuck search's queue; search owns Network.queue
	spare     []int32 // partition's buffer
	unsettled int     // jobs on no level yet
	out       *Skyline
}

// solve finds the levels of the part of jobs and slots, whose arcs hold a
// flow in units of 1/den (none when den is 0): routed at its mean level
// from that flow, it is one level or splits at the maximal min cut into
// two parts, solved in turn, the upper from the flow left on it.
func (s *lexState) solve(jobs, slots []int32, den int64) error {
	if s.unsettled == 0 {
		// Every job is on a level: these slots carry only what they must.
		for _, t := range slots {
			s.out.Load[t] = float64(s.base[t])
		}
		return nil
	}
	var demand, capSum, baseSum int64
	var err error
	for _, j := range jobs {
		if demand, err = add(demand, s.demand[j]); err != nil {
			return err
		}
	}
	for _, t := range slots {
		if capSum, err = add(capSum, s.caps[t]); err != nil {
			return err
		}
		if baseSum, err = add(baseSum, s.base[t]); err != nil {
			return err
		}
	}
	if capSum == 0 {
		return ErrInfeasible // demand left and no slot to take it
	}
	total, err := add(demand, baseSum)
	if err != nil {
		return err
	}
	theta := newRatio(total, capSum)
	want, tight, err := s.setCaps(theta, demand, jobs, slots, den)
	if err != nil {
		return err
	}
	s.augment(jobs)
	routed := int64(0)
	for _, j := range jobs {
		routed += s.res[s.srcEdge[j]^1]
	}
	if routed == want && tight {
		s.settle(theta, jobs, slots)
		return nil
	}
	upJobs, lowJobs, upSlots, lowSlots, err := s.split(jobs, slots)
	if err != nil {
		return err
	}
	if err := s.solve(upJobs, upSlots, theta.den); err != nil {
		return err
	}
	return s.solve(lowJobs, lowSlots, 0)
}

// setCaps marks the part's slots, scales its network by theta's
// denominator and returns the scaled demand and whether every slot's forced
// load is at or under θ·C_t; a slot whose forced load alone is over it
// takes nothing more, and ends above θ. The part starts from a zero flow
// when den is 0. Otherwise it is above a cut and keeps its parent's flow in
// units of 1/den, each arc's rescaled rounding down and the source and sink
// flows summed from the arcs. That flow fits: the part's mean level θ′ is
// at least its parent's θ; each of its slots carried either its whole room
// at θ, or nothing when its forced load alone was over θ·C_t; and the room
// at θ′ is never less than the room at θ.
func (s *lexState) setCaps(theta ratio, demand int64, jobs, slots []int32, den int64) (want int64, tight bool, err error) {
	if want, err = mul(demand, theta.den); err != nil {
		return 0, false, err
	}
	scale := theta.den // a flow in units of 1/den becomes one in 1/θ.den
	if den == 0 {
		s.work.MaxFlows++
		scale, den = 0, 1 // a zero flow
	} else {
		s.work.Resumed++
	}
	for _, t := range slots {
		s.in[t] = true
		e := s.sinkEdge[t]
		s.res[e], s.res[e^1] = 0, 0
	}
	for _, j := range jobs {
		arcCap, err := mul(s.jobs[j].Cap, theta.den)
		if err != nil {
			return 0, false, err
		}
		full, err := mul(s.demand[j], theta.den)
		if err != nil {
			return 0, false, err
		}
		sent := int64(0)
		for i, t := range s.arcs(int(j)) {
			if s.in[t] {
				e := s.arcStart[j] + int32(2*i)
				x := mulDiv(s.res[e^1], scale, den)
				s.res[e], s.res[e^1] = arcCap-x, x
				s.res[s.sinkEdge[t]^1] += x
				sent += x
			}
		}
		e := s.srcEdge[j]
		s.res[e], s.res[e^1] = full-sent, sent
	}
	tight = true
	for _, t := range slots {
		hi, err := mul(theta.num, s.caps[t])
		if err != nil {
			return 0, false, err
		}
		lo, err := mul(s.base[t], theta.den)
		if err != nil {
			return 0, false, err
		}
		tight = tight && lo <= hi
		e := s.sinkEdge[t]
		s.res[e] = max(hi-lo, 0) - s.res[e^1]
	}
	return want, tight, nil
}

// settle records the part as one level at theta, every slot at θ·C_t, with
// the flow that routed it as its jobs' rows.
func (s *lexState) settle(theta ratio, jobs, slots []int32) {
	lv := Level{Num: theta.num, Den: theta.den}
	for _, j := range jobs {
		lv.Jobs = append(lv.Jobs, int(j))
		job, row := s.jobs[j], s.out.Alloc[j]
		for i, t := range s.arcs(int(j)) {
			switch x := &row[int64(t)-job.Rel]; {
			case s.in[t]:
				*x = s.res[(s.arcStart[j]+int32(2*i))^1]
			case *x != 0:
				*x = job.Cap * theta.den // a slot below, the whole arc: setCaps checked the product
			}
		}
		s.out.Den[j] = theta.den
	}
	load := float64(theta.num) / float64(theta.den)
	for _, t := range slots {
		lv.Slots = append(lv.Slots, int(t))
		// float64() rounds the product: the repair's sum must not fuse with it.
		s.out.Load[t] = float64(load * float64(s.caps[t]))
		s.in[t] = false
	}
	s.unsettled -= len(jobs)
	s.out.Levels = append(s.out.Levels, lv)
}

// split cuts the part at the maximal min cut of its max flow, the nodes
// that cannot reach the sink in the residual graph, and returns each list
// as the side on the cut, then the side off it. The jobs on the cut put
// their whole Cap on each slot off it — those arcs cross the cut, full —
// which takes it as forced load, and the jobs off it put nothing on a slot
// on it. Both arcs leave the network, so each side is a network of its
// own.
func (s *lexState) split(jobs, slots []int32) (upJobs, lowJobs, upSlots, lowSlots []int32, err error) {
	for _, j := range jobs {
		s.stuck[s.jobNode(int(j))] = true
	}
	s.back = s.back[:0]
	for _, t := range slots {
		v := s.slotNode(int(t))
		if s.stuck[v] = s.res[s.sinkEdge[t]] == 0; !s.stuck[v] {
			s.back = append(s.back, v)
		}
	}
	for head := 0; head < len(s.back); head++ {
		v := s.back[head]
		for _, e := range s.adj[s.adjStart[v]:s.adjEnd[v]] {
			// An edge out of the part is empty but a source or a sink arc.
			if u := s.to[e]; s.res[e^1] > 0 && s.stuck[u] {
				s.stuck[u] = false
				s.back = append(s.back, u)
			}
		}
	}
	for _, j := range jobs {
		up, job := s.stuck[s.jobNode(int(j))], s.jobs[j]
		for i, t := range s.arcs(int(j)) {
			if !s.in[t] || s.stuck[s.slotNode(int(t))] == up {
				continue
			}
			if up {
				if s.base[t], err = add(s.base[t], job.Cap); err != nil {
					return nil, nil, nil, nil, err
				}
				s.demand[j] -= job.Cap
				s.out.Alloc[j][int64(t)-job.Rel] = job.Cap // scaled when the job's level is found
			}
			e := s.arcStart[j] + int32(2*i)
			s.res[e], s.res[e^1] = 0, 0
		}
	}
	for _, t := range slots {
		s.in[t] = false
	}
	upJobs, lowJobs = s.partition(jobs, s.jobNode(0))
	upSlots, lowSlots = s.partition(slots, s.slotNode(0))
	if len(upJobs)+len(upSlots) == 0 || len(lowSlots) == 0 {
		return nil, nil, nil, nil, errors.New("flow: a side of the cut is empty (internal error)")
	}
	return upJobs, lowJobs, upSlots, lowSlots, nil
}

// partition reorders ids, nodes first+id, into those stuck and then the
// rest, each in its order, and returns the two.
func (s *lexState) partition(ids []int32, first int32) (up, low []int32) {
	s.spare = s.spare[:0]
	k := 0
	for _, x := range ids {
		if s.stuck[first+x] {
			ids[k] = x
			k++
		} else {
			s.spare = append(s.spare, x)
		}
	}
	copy(ids[k:], s.spare)
	return ids[:k], ids[k:]
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
