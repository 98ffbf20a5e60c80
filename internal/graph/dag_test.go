package graph

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func mustEdges(t *testing.T, g *DAG, edges [][2]int) {
	t.Helper()
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%d, %d): %v", e[0], e[1], err)
		}
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewDAG(3)
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	mustEdges(t, g, [][2]int{{0, 1}, {0, 1}}) // duplicate ignored
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (duplicate suppressed)", g.NumEdges())
	}
}

func TestTopoOrder(t *testing.T) {
	g := NewDAG(5)
	mustEdges(t, g, [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}})
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make([]int, 5)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge (%d,%d) violated: positions %d >= %d", e[0], e[1], pos[e[0]], pos[e[1]])
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewDAG(3)
	mustEdges(t, g, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if _, err := g.TopoOrder(); !errors.Is(err, ErrCycle) {
		t.Errorf("TopoOrder on cycle = %v, want ErrCycle", err)
	}
	if _, err := g.AntichainSets(); !errors.Is(err, ErrCycle) {
		t.Errorf("AntichainSets on cycle = %v, want ErrCycle", err)
	}
	if !g.HasCycle() {
		t.Error("HasCycle = false on a cyclic graph")
	}
}

func TestAntichainSetsPaperFig3(t *testing.T) {
	// The paper's Fig. 3: node 0 fans out to nodes 1..n-1, which all feed
	// node n. Grouped Kahn must emit {0}, {1..n-1}, {n}.
	const n = 6
	g := NewDAG(n + 1)
	for mid := 1; mid < n; mid++ {
		mustEdges(t, g, [][2]int{{0, mid}, {mid, n}})
	}
	sets, err := g.AntichainSets()
	if err != nil {
		t.Fatalf("AntichainSets: %v", err)
	}
	if len(sets) != 3 {
		t.Fatalf("got %d sets, want 3", len(sets))
	}
	if len(sets[0]) != 1 || sets[0][0] != 0 {
		t.Errorf("first set = %v, want [0]", sets[0])
	}
	if len(sets[1]) != n-1 {
		t.Errorf("middle set has %d nodes, want %d", len(sets[1]), n-1)
	}
	if len(sets[2]) != 1 || sets[2][0] != n {
		t.Errorf("last set = %v, want [%d]", sets[2], n)
	}
}

func TestAntichainSetsChainAndIndependent(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		want  int // number of sets
	}{
		{"chain", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, 4},
		{"independent", 4, nil, 1},
		{"diamond", 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, 3},
		{"empty", 0, nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := NewDAG(tt.n)
			mustEdges(t, g, tt.edges)
			sets, err := g.AntichainSets()
			if err != nil {
				t.Fatalf("AntichainSets: %v", err)
			}
			if len(sets) != tt.want {
				t.Errorf("got %d sets %v, want %d", len(sets), sets, tt.want)
			}
			total := 0
			for _, s := range sets {
				total += len(s)
			}
			if total != tt.n {
				t.Errorf("sets cover %d nodes, want %d", total, tt.n)
			}
		})
	}
}

func TestAntichainSetsAreAntichains(t *testing.T) {
	// Property: within one set no node can reach another (checked via
	// repeated DFS on random DAGs).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		g := NewDAG(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.3 {
					mustEdges(t, g, [][2]int{{a, b}})
				}
			}
		}
		sets, err := g.AntichainSets()
		if err != nil {
			t.Fatalf("AntichainSets: %v", err)
		}
		reach := reachability(g)
		for _, set := range sets {
			for _, a := range set {
				for _, b := range set {
					if a != b && reach[a][b] {
						t.Fatalf("trial %d: %d reaches %d inside one antichain set", trial, a, b)
					}
				}
			}
		}
	}
}

func reachability(g *DAG) [][]bool {
	n := g.NumNodes()
	reach := make([][]bool, n)
	for v := 0; v < n; v++ {
		reach[v] = make([]bool, n)
		stack := append([]int(nil), g.Successors(v)...)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[v][u] {
				continue
			}
			reach[v][u] = true
			stack = append(stack, g.Successors(u)...)
		}
	}
	return reach
}

func TestLongestPath(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3 with weights 1, 5, 2, 1: critical path is
	// 0 -> 1 -> 3 with total 7.
	g := NewDAG(4)
	mustEdges(t, g, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	dist, total, err := g.LongestPath([]int64{1, 5, 2, 1})
	if err != nil {
		t.Fatalf("LongestPath: %v", err)
	}
	if total != 7 {
		t.Errorf("total = %d, want 7", total)
	}
	if want := []int64{1, 6, 3, 7}; !slices.Equal(dist, want) {
		t.Errorf("dist = %v, want %v", dist, want)
	}
}

func TestLongestPathValidation(t *testing.T) {
	g := NewDAG(2)
	if _, _, err := g.LongestPath([]int64{1}); err == nil {
		t.Error("wrong weight length accepted")
	}
	if _, _, err := g.LongestPath([]int64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	mustEdges(t, g, [][2]int{{0, 1}})
	if _, _, err := g.LongestPath([]int64{math.MaxInt64, 1}); err == nil {
		t.Error("path weight past int64 accepted")
	}
	if _, total, err := g.LongestPath([]int64{math.MaxInt64 - 1, 1}); err != nil || total != math.MaxInt64 {
		t.Errorf("path weight of exactly MaxInt64: total %d, %v", total, err)
	}
}

// tailLength is, for each node, the maximum total weight of any path
// starting at that node (inclusive): LongestPath's distances seen from the
// sinks, computed independently as the reference for the property below.
func tailLength(t *testing.T, g *DAG, weight []int64) []int64 {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	tail := make([]int64, g.NumNodes())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, s := range g.Successors(v) {
			tail[v] = max(tail[v], tail[s])
		}
		tail[v] += weight[v]
	}
	return tail
}

func TestHeadPlusTailConsistency(t *testing.T) {
	// Property: for every node, the longest path through it,
	// dist[v] + tail[v] - weight[v], is at most total, and on some node it
	// is exactly total.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(15)
		g := NewDAG(n)
		w := make([]int64, n)
		for v := range w {
			w[v] = int64(1 + rng.Intn(9))
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.25 {
					mustEdges(t, g, [][2]int{{a, b}})
				}
			}
		}
		dist, total, err := g.LongestPath(w)
		if err != nil {
			t.Fatalf("LongestPath: %v", err)
		}
		tail := tailLength(t, g, w)
		var longest int64
		for v := 0; v < n; v++ {
			through := dist[v] + tail[v] - w[v]
			if through > total {
				t.Fatalf("trial %d: node %d path %d exceeds critical %d", trial, v, through, total)
			}
			longest = max(longest, through)
		}
		if longest != total {
			t.Fatalf("trial %d: longest path through any node %d, critical %d", trial, longest, total)
		}
	}
}

func TestClone(t *testing.T) {
	g := NewDAG(4)
	mustEdges(t, g, [][2]int{{0, 1}, {1, 2}})
	c := g.Clone()
	mustEdges(t, c, [][2]int{{2, 3}})
	if g.NumEdges() != 2 {
		t.Errorf("clone mutation leaked into original: %d edges", g.NumEdges())
	}
	if c.NumEdges() != 3 {
		t.Errorf("clone edges = %d, want 3", c.NumEdges())
	}
}
