package core

import (
	"context"
	"fmt"

	"sectorpack/internal/angular"
	"sectorpack/internal/flow"
	"sectorpack/internal/model"
)

// SolveUnitFlow solves the UNIT variant (all demands and profits equal) by
// max-flow: with orientations fixed, maximizing served customers is a
// bipartite b-matching — source → customer (capacity 1), customer →
// covering antenna (capacity 1), antenna → sink (capacity ⌊C_j/d⌋) — which
// Dinic solves exactly.
//
// Orientations: for a single antenna every candidate orientation is tried,
// making the solver exact (candidate-orientation lemma). For multiple
// antennas the orientations come from a greedy pass and the flow then
// computes the optimal assignment at those orientations, so the result is
// a heuristic that always dominates greedy at equal orientations.
//
// The instance must satisfy UnitDemand; Sectors and Angles variants only
// (disjointness would couple the orientation choices).
//
// Cancellation: ctx is checked before each candidate orientation's flow
// solve (single antenna) and at the greedy/flow phase boundary.
func SolveUnitFlow(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	if err := validateForSolve(in); err != nil {
		return model.Solution{}, err
	}
	if !in.UnitDemand() {
		return model.Solution{}, fmt.Errorf("core: SolveUnitFlow requires unit demands")
	}
	if in.Variant == model.DisjointAngles {
		return model.Solution{}, fmt.Errorf("core: SolveUnitFlow does not support %v", model.DisjointAngles)
	}
	n, m := in.N(), in.M()
	sol := model.Solution{Algorithm: "unitflow", Assignment: model.NewAssignment(n, m)}
	if n == 0 || m == 0 {
		return sol, nil
	}

	if m == 1 {
		// Exact: sweep every candidate orientation.
		best := model.NewAssignment(n, m)
		var bestProfit int64 = -1
		for _, alpha := range angular.Candidates(in, 0) {
			if err := ctx.Err(); err != nil {
				return model.Solution{}, err
			}
			as, p, err := flowAssign(in, []float64{alpha})
			if err != nil {
				return model.Solution{}, err
			}
			if p > bestProfit {
				bestProfit = p
				best = as
			}
		}
		if bestProfit < 0 {
			bestProfit = 0
		}
		sol.Assignment = best
		sol.Profit = bestProfit
		return withBound(ctx, in, opt, sol)
	}

	greedy, err := SolveGreedy(ctx, in, opt)
	if err != nil {
		return model.Solution{}, err
	}
	if err := ctx.Err(); err != nil {
		return model.Solution{}, err
	}
	as, p, err := flowAssign(in, greedy.Assignment.Orientation)
	if err != nil {
		return model.Solution{}, err
	}
	sol.Assignment = as
	sol.Profit = p
	sol.UpperBound = greedy.UpperBound
	if greedy.Profit > p {
		// Flow maximizes served count at fixed orientations, which equals
		// profit for unit instances, so this cannot happen; keep the
		// defensive fallback anyway.
		sol.Assignment = greedy.Assignment
		sol.Profit = greedy.Profit
	}
	return sol, nil
}

// flowAssign computes the optimal unit-demand assignment at the given
// orientations via Dinic and returns it with its profit.
func flowAssign(in *model.Instance, alphas []float64) (*model.Assignment, int64, error) {
	n, m := in.N(), in.M()
	d := in.Customers[0].Demand
	unitProfit := in.Customers[0].Profit

	g := flow.NewNetwork(n+m+2, n*m+n+m)
	src := g.AddNode()
	custBase := g.AddNodes(n)
	antBase := g.AddNodes(m)
	sink := g.AddNode()
	for i := 0; i < n; i++ {
		if _, err := g.AddEdge(src, custBase+i, 1); err != nil {
			return nil, 0, err
		}
	}
	type arc struct {
		cust, ant int
		handle    int
	}
	var arcs []arc
	for i, c := range in.Customers {
		for j, a := range in.Antennas {
			if a.Covers(alphas[j], c) {
				h, err := g.AddEdge(custBase+i, antBase+j, 1)
				if err != nil {
					return nil, 0, err
				}
				arcs = append(arcs, arc{cust: i, ant: j, handle: h})
			}
		}
	}
	for j, a := range in.Antennas {
		units := a.Capacity / d
		if _, err := g.AddEdge(antBase+j, sink, units); err != nil {
			return nil, 0, err
		}
	}
	served, err := g.MaxFlow(src, sink)
	if err != nil {
		return nil, 0, err
	}
	as := model.NewAssignment(n, m)
	copy(as.Orientation, alphas)
	for _, e := range arcs {
		if g.Flow(e.handle) > 0 {
			as.Owner[e.cust] = e.ant
		}
	}
	return as, served * unitProfit, nil
}
