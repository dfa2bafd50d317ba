package flow

import (
	"math/rand"
	"testing"
)

// NumNodes returns the current node count.
func (g *Network) NumNodes() int { return len(g.adj) }

// MinCutReachable returns the set of nodes reachable from s in the residual
// graph after MaxFlow; the edges from this set to its complement form a
// minimum cut.
func (g *Network) MinCutReachable(s int) []bool {
	seen := make([]bool, len(g.adj))
	stack := []int{s}
	seen[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.adj[u] {
			e := g.edges[eid]
			if e.cap > 0 && !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, int(e.to))
			}
		}
	}
	return seen
}

func mustEdge(t *testing.T, g *Network, u, v int, c int64) int {
	t.Helper()
	h, err := g.AddEdge(u, v, c)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d,%d): %v", u, v, c, err)
	}
	return h
}

func TestClassicNetwork(t *testing.T) {
	// CLRS-style example with max flow 23.
	g := NewNetwork(6, 10)
	s := g.AddNode()
	v1, v2, v3, v4 := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	tk := g.AddNode()
	mustEdge(t, g, s, v1, 16)
	mustEdge(t, g, s, v2, 13)
	mustEdge(t, g, v1, v3, 12)
	mustEdge(t, g, v2, v1, 4)
	mustEdge(t, g, v2, v4, 14)
	mustEdge(t, g, v3, v2, 9)
	mustEdge(t, g, v3, tk, 20)
	mustEdge(t, g, v4, v3, 7)
	mustEdge(t, g, v4, tk, 4)
	got, err := g.MaxFlow(s, tk)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if got != 23 {
		t.Fatalf("max flow = %d, want 23", got)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewNetwork(2, 0)
	s, tk := g.AddNode(), g.AddNode()
	got, err := g.MaxFlow(s, tk)
	if err != nil || got != 0 {
		t.Fatalf("flow = %d err = %v, want 0", got, err)
	}
}

func TestSingleEdge(t *testing.T) {
	g := NewNetwork(2, 1)
	s, tk := g.AddNode(), g.AddNode()
	h := mustEdge(t, g, s, tk, 7)
	got, _ := g.MaxFlow(s, tk)
	if got != 7 {
		t.Fatalf("flow = %d, want 7", got)
	}
	if g.Flow(h) != 7 {
		t.Fatalf("edge flow = %d, want 7", g.Flow(h))
	}
}

func TestErrors(t *testing.T) {
	g := NewNetwork(2, 1)
	s := g.AddNode()
	if _, err := g.AddEdge(s, 5, 1); err == nil {
		t.Error("unknown node must error")
	}
	if _, err := g.AddEdge(s, s, -1); err == nil {
		t.Error("negative capacity must error")
	}
	if _, err := g.MaxFlow(s, s); err == nil {
		t.Error("s == t must error")
	}
	if _, err := g.MaxFlow(s, 9); err == nil {
		t.Error("out-of-range sink must error")
	}
}

func TestAddNodes(t *testing.T) {
	g := NewNetwork(0, 0)
	first := g.AddNodes(5)
	if first != 0 || g.NumNodes() != 5 {
		t.Fatalf("AddNodes: first=%d n=%d", first, g.NumNodes())
	}
}

// bipartiteBrute computes maximum bipartite matching by augmenting DFS —
// an independent oracle for the unit-capacity case.
func bipartiteBrute(nL, nR int, adj [][]int) int {
	matchR := make([]int, nR)
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(u int, seen []bool) bool
	try = func(u int, seen []bool) bool {
		for _, v := range adj[u] {
			if seen[v] {
				continue
			}
			seen[v] = true
			if matchR[v] < 0 || try(matchR[v], seen) {
				matchR[v] = u
				return true
			}
		}
		return false
	}
	count := 0
	for u := 0; u < nL; u++ {
		seen := make([]bool, nR)
		if try(u, seen) {
			count++
		}
	}
	return count
}

func TestBipartiteMatchingAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		nL := 1 + rng.Intn(8)
		nR := 1 + rng.Intn(8)
		adj := make([][]int, nL)
		g := NewNetwork(nL+nR+2, nL*nR+nL+nR)
		s := g.AddNode()
		left := g.AddNodes(nL)
		right := g.AddNodes(nR)
		tk := g.AddNode()
		for u := 0; u < nL; u++ {
			mustEdge(t, g, s, left+u, 1)
			for v := 0; v < nR; v++ {
				if rng.Float64() < 0.4 {
					adj[u] = append(adj[u], v)
					mustEdge(t, g, left+u, right+v, 1)
				}
			}
		}
		for v := 0; v < nR; v++ {
			mustEdge(t, g, right+v, tk, 1)
		}
		want := int64(bipartiteBrute(nL, nR, adj))
		got, err := g.MaxFlow(s, tk)
		if err != nil {
			t.Fatalf("MaxFlow: %v", err)
		}
		if got != want {
			t.Fatalf("matching = %d, want %d", got, want)
		}
	}
}

// TestFlowConservation checks that on random networks the computed flow is
// conserved at internal nodes and respects capacities, and that the min-cut
// capacity equals the flow value (strong duality certificate).
func TestFlowConservationAndMinCut(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(8)
		g := NewNetwork(n, n*n/2)
		for i := 0; i < n; i++ {
			g.AddNode()
		}
		type eh struct{ u, v, h int }
		var handles []eh
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.3 {
					h := mustEdge(t, g, u, v, rng.Int63n(20)+1)
					handles = append(handles, eh{u, v, h})
				}
			}
		}
		s, tk := 0, n-1
		val, err := g.MaxFlow(s, tk)
		if err != nil {
			t.Fatalf("MaxFlow: %v", err)
		}
		// conservation
		net := make([]int64, n)
		for _, e := range handles {
			f := g.Flow(e.h)
			if f < 0 {
				t.Fatalf("negative flow %d on edge %d->%d", f, e.u, e.v)
			}
			net[e.u] -= f
			net[e.v] += f
		}
		for i := 0; i < n; i++ {
			if i == s || i == tk {
				continue
			}
			if net[i] != 0 {
				t.Fatalf("conservation violated at node %d: %d", i, net[i])
			}
		}
		if net[tk] != val || net[s] != -val {
			t.Fatalf("endpoint imbalance: s=%d t=%d val=%d", net[s], net[tk], val)
		}
		// min cut certificate
		reach := g.MinCutReachable(s)
		if reach[tk] {
			t.Fatal("sink reachable in residual graph after max flow")
		}
		var cutCap int64
		for _, e := range handles {
			if reach[e.u] && !reach[e.v] {
				cutCap += g.edges[e.h].orig
			}
		}
		if cutCap != val {
			t.Fatalf("cut capacity %d != flow value %d", cutCap, val)
		}
	}
}
