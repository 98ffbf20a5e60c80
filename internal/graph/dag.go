// Package graph provides the directed-acyclic-graph machinery FlowTime's
// deadline decomposition builds on: Kahn's topological sort with antichain
// (level-set) grouping (paper §IV-A), longest/critical paths, and cycle
// detection.
//
// Nodes are dense integer IDs 0..N-1 assigned by the caller, which keeps
// the structure allocation-friendly for the decomposition hot path measured
// in the paper's Fig. 6.
package graph

import (
	"errors"
	"fmt"
)

// ErrCycle is returned when an operation requires acyclicity and the graph
// has a directed cycle.
var ErrCycle = errors.New("graph: cycle detected")

// DAG is a directed graph over nodes 0..N-1. Use NewDAG then AddEdge; most
// queries require the graph to be acyclic and return ErrCycle otherwise.
type DAG struct {
	n        int
	succ     [][]int
	pred     [][]int
	numEdges int
}

// NewDAG returns a graph with n nodes and no edges.
func NewDAG(n int) *DAG {
	return &DAG{
		n:    n,
		succ: make([][]int, n),
		pred: make([][]int, n),
	}
}

// NumNodes returns the node count.
func (g *DAG) NumNodes() int { return g.n }

// NumEdges returns the edge count.
func (g *DAG) NumEdges() int { return g.numEdges }

// AddEdge inserts the dependency edge from -> to ("to depends on from").
// Self-loops and out-of-range nodes are rejected; duplicate edges are
// ignored (the DAG stays a simple graph).
func (g *DAG) AddEdge(from, to int) error {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return fmt.Errorf("graph: edge (%d, %d) out of range [0, %d)", from, to, g.n)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on node %d", from)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return nil
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.numEdges++
	return nil
}

// Successors returns the direct successors of node v. The returned slice is
// owned by the graph; callers must not mutate it.
func (g *DAG) Successors(v int) []int { return g.succ[v] }

// Predecessors returns the direct predecessors of node v. The returned
// slice is owned by the graph; callers must not mutate it.
func (g *DAG) Predecessors(v int) []int { return g.pred[v] }

// TopoOrder returns one topological order via Kahn's algorithm, or ErrCycle.
func (g *DAG) TopoOrder() ([]int, error) {
	order := make([]int, 0, g.n)
	indeg := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = len(g.pred[v])
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range g.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// AntichainSets implements the grouped variant of Kahn's algorithm from the
// paper (§IV-A, Fig. 3): nodes whose dependencies are all satisfied at the
// same wave are emitted together as one set, so mutually independent jobs —
// e.g. {2..n} in the paper's example {1, {2,…,n}, n+1} — share a deadline
// window. Returns ErrCycle on cyclic input.
func (g *DAG) AntichainSets() ([][]int, error) {
	indeg := make([]int, g.n)
	wave := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = len(g.pred[v])
		if indeg[v] == 0 {
			wave = append(wave, v)
		}
	}
	var sets [][]int
	seen := 0
	for len(wave) > 0 {
		set := append([]int(nil), wave...)
		sets = append(sets, set)
		seen += len(set)
		next := wave[:0]
		for _, v := range set {
			for _, s := range g.succ[v] {
				indeg[s]--
				if indeg[s] == 0 {
					next = append(next, s)
				}
			}
		}
		wave = next
	}
	if seen != g.n {
		return nil, ErrCycle
	}
	return sets, nil
}

// LongestPath computes, for each node, the maximum total weight of any path
// ending at that node (inclusive of the node's own weight), plus the
// overall critical-path weight and one critical path itself. Weights must
// be non-negative.
func (g *DAG) LongestPath(weight []float64) (dist []float64, critical []int, total float64, err error) {
	if len(weight) != g.n {
		return nil, nil, 0, fmt.Errorf("graph: weight length %d != %d nodes", len(weight), g.n)
	}
	for v, w := range weight {
		if w < 0 {
			return nil, nil, 0, fmt.Errorf("graph: negative weight %g on node %d", w, v)
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, nil, 0, err
	}
	dist = make([]float64, g.n)
	parent := make([]int, g.n)
	for v := range parent {
		parent[v] = -1
	}
	for _, v := range order {
		best := 0.0
		bp := -1
		for _, p := range g.pred[v] {
			if dist[p] > best {
				best, bp = dist[p], p
			}
		}
		dist[v] = best + weight[v]
		parent[v] = bp
	}
	end := -1
	for v := 0; v < g.n; v++ {
		if dist[v] > total {
			total, end = dist[v], v
		}
	}
	if end >= 0 {
		for v := end; v >= 0; v = parent[v] {
			critical = append(critical, v)
		}
		// Reverse in place: the walk above runs sink-to-source.
		for i, j := 0, len(critical)-1; i < j; i, j = i+1, j-1 {
			critical[i], critical[j] = critical[j], critical[i]
		}
	}
	return dist, critical, total, nil
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *DAG) HasCycle() bool {
	_, err := g.TopoOrder()
	return err != nil
}

// Clone returns a deep copy of the graph.
func (g *DAG) Clone() *DAG {
	c := NewDAG(g.n)
	for v, ss := range g.succ {
		for _, s := range ss {
			// AddEdge cannot fail on edges that already exist in a valid DAG.
			if err := c.AddEdge(v, s); err != nil {
				panic(fmt.Sprintf("graph: clone: %v", err))
			}
		}
	}
	return c
}
