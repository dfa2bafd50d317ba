// Package flow implements Dinic's maximum-flow algorithm on integer-capacity
// networks. Sector packing uses it for the UNIT variant: with orientations
// fixed, serving unit-demand customers is a bipartite b-matching between
// customers and antennas, which is a unit-capacity flow problem that Dinic
// solves exactly in O(E·√V).
package flow

import (
	"fmt"
	"math"
)

// Network is a directed flow network under construction. Nodes are dense
// integer ids created by AddNode; edges carry int64 capacities.
type Network struct {
	// adjacency: per node, indices into edges
	adj   [][]int32
	edges []edge
}

type edge struct {
	to   int32
	cap  int64 // residual capacity
	orig int64 // original capacity (for flow reporting)
}

// NewNetwork returns an empty network with capacity hints for nodes/edges.
func NewNetwork(nodeHint, edgeHint int) *Network {
	return &Network{
		adj:   make([][]int32, 0, nodeHint),
		edges: make([]edge, 0, 2*edgeHint),
	}
}

// AddNode creates a node and returns its id.
func (g *Network) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddNodes creates k nodes and returns the id of the first.
func (g *Network) AddNodes(k int) int {
	first := len(g.adj)
	for i := 0; i < k; i++ {
		g.adj = append(g.adj, nil)
	}
	return first
}

// AddEdge adds a directed edge u→v with the given capacity (and an implicit
// residual reverse edge of capacity zero). It returns an edge handle usable
// with Flow after solving.
func (g *Network) AddEdge(u, v int, capacity int64) (int, error) {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return 0, fmt.Errorf("flow: edge (%d,%d) references unknown node (have %d)", u, v, len(g.adj))
	}
	if capacity < 0 {
		return 0, fmt.Errorf("flow: negative capacity %d on edge (%d,%d)", capacity, u, v)
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: int32(v), cap: capacity, orig: capacity})
	g.edges = append(g.edges, edge{to: int32(u), cap: 0, orig: 0})
	g.adj[u] = append(g.adj[u], int32(id))
	g.adj[v] = append(g.adj[v], int32(id+1))
	return id, nil
}

// Flow returns the flow pushed through the edge handle returned by AddEdge.
func (g *Network) Flow(handle int) int64 {
	return g.edges[handle].orig - g.edges[handle].cap
}

// MaxFlow computes the maximum s→t flow, mutating the network's residual
// capacities. Calling it twice continues from the previous residual state,
// so a fresh computation needs a fresh network.
func (g *Network) MaxFlow(s, t int) (int64, error) {
	if s < 0 || s >= len(g.adj) || t < 0 || t >= len(g.adj) {
		return 0, fmt.Errorf("flow: source %d or sink %d out of range (have %d nodes)", s, t, len(g.adj))
	}
	if s == t {
		return 0, fmt.Errorf("flow: source equals sink")
	}
	level := make([]int32, len(g.adj))
	iter := make([]int, len(g.adj))
	queue := make([]int32, 0, len(g.adj))
	var total int64
	for g.bfs(s, t, level, &queue) {
		for i := range iter {
			iter[i] = 0
		}
		for {
			pushed := g.dfs(s, t, math.MaxInt64, level, iter)
			if pushed == 0 {
				break
			}
			total += pushed
		}
	}
	return total, nil
}

// bfs builds the level graph; returns whether t is reachable.
func (g *Network) bfs(s, t int, level []int32, queue *[]int32) bool {
	for i := range level {
		level[i] = -1
	}
	q := (*queue)[:0]
	level[s] = 0
	q = append(q, int32(s))
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		for _, eid := range g.adj[u] {
			e := &g.edges[eid]
			if e.cap > 0 && level[e.to] < 0 {
				level[e.to] = level[u] + 1
				q = append(q, e.to)
			}
		}
	}
	*queue = q[:0]
	return level[t] >= 0
}

// dfs sends blocking flow along the level graph.
func (g *Network) dfs(u, t int, limit int64, level []int32, iter []int) int64 {
	if u == t {
		return limit
	}
	for ; iter[u] < len(g.adj[u]); iter[u]++ {
		eid := g.adj[u][iter[u]]
		e := &g.edges[eid]
		if e.cap <= 0 || level[e.to] != level[u]+1 {
			continue
		}
		send := limit
		if e.cap < send {
			send = e.cap
		}
		pushed := g.dfs(int(e.to), t, send, level, iter)
		if pushed > 0 {
			e.cap -= pushed
			g.edges[eid^1].cap += pushed
			return pushed
		}
	}
	return 0
}
