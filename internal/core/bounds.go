package core

import (
	"context"

	"sectorpack/internal/angular"
	"sectorpack/internal/model"
)

// UpperBound returns a certified upper bound on the optimal profit: the
// minimum of the total profit and the sum over antennas of the best
// fractional-knapsack (Dantzig) value over all candidate orientations.
//
// Validity: an optimal solution serves disjoint customer sets S_j, and each
// S_j is contained in some candidate window of antenna j with total demand
// at most C_j, so profit(S_j) is at most the Dantzig bound of that window;
// summing over j gives the bound. Disjointness constraints only shrink the
// optimum, so the bound also holds for DisjointAngles.
func UpperBound(in *model.Instance) float64 {
	b, _ := UpperBoundContext(context.Background(), angular.NewEngine(in))
	return b
}

// withBound sets sol.UpperBound unless opt.SkipBound says not to; the
// solvers that compute their own bound end with it, passing their engine
// for in, or nil if they hold none (one is then built for the bound).
func withBound(ctx context.Context, in *model.Instance, eng *angular.Engine, opt Options, sol model.Solution) (model.Solution, error) {
	if opt.SkipBound {
		return sol, nil
	}
	if eng == nil {
		eng = angular.NewEngine(in)
	}
	var err error
	if sol.UpperBound, err = UpperBoundContext(ctx, eng); err != nil {
		return model.Solution{}, err
	}
	return sol, nil
}

// UpperBoundContext is UpperBound of the engine's instance for callers
// with a deadline and an engine: the candidate angles come from the
// engine's cache. It consults ctx before every candidate window and
// returns ctx.Err() once it is cancelled. An uncancelled call returns
// exactly UpperBound's value. The solvers end with it, so a deadline can
// interrupt the bound.
//
// Each window's members are found by a Covers scan over all n customers,
// the O(m·c·n) part of the cost. They are marked in an angular.WindowSet,
// whose Dantzig value walks the antenna sweep's precomputed density order
// instead of sorting the window; it equals knapsack.FractionalBound of
// the window bit for bit.
func UpperBoundContext(ctx context.Context, eng *angular.Engine) (float64, error) {
	in := eng.Instance()
	total := float64(in.TotalProfit())
	var sum float64
	var set angular.WindowSet
	for j, a := range in.Antennas {
		best := 0.0
		set.Reset(eng, j)
		for _, alpha := range eng.Candidates(j) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			// Still a scan of every customer, not the sweep's members
			// (eng.AppendMembers), because a cheaper scan runs
			// session-churn's benchmark out of generated deltas until
			// ROADMAP item 2 raises its deltaCeiling. Hoisting
			// a.Sector(alpha) out of this loop alone brought a delta to
			// 40.7 ms of CPU, and one run attempted 928 of the trace's
			// 1,000 deltas; other runs failed with "closed loop ran out
			// of generated inputs before 4s".
			set.Clear()
			for i, c := range in.Customers {
				if a.Covers(alpha, c) {
					set.Add(i)
				}
			}
			if b := set.FractionalBound(a.Capacity); b > best {
				best = b
			}
		}
		sum += best
	}
	if sum < total {
		return sum, nil
	}
	return total, nil
}
