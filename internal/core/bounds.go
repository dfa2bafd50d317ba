package core

import (
	"context"

	"sectorpack/internal/angular"
	"sectorpack/internal/knapsack"
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
	b, _ := UpperBoundContext(context.Background(), in)
	return b
}

// withBound sets sol.UpperBound unless opt.SkipBound says not to; the
// solvers that compute their own bound end with it.
func withBound(ctx context.Context, in *model.Instance, opt Options, sol model.Solution) (model.Solution, error) {
	if !opt.SkipBound {
		var err error
		if sol.UpperBound, err = UpperBoundContext(ctx, in); err != nil {
			return model.Solution{}, err
		}
	}
	return sol, nil
}

// UpperBoundContext is UpperBound for callers with a deadline: it consults
// ctx once per antenna and returns ctx.Err() once it is cancelled. An
// uncancelled call returns exactly UpperBound's value. The solvers and the
// session cascade end with it, so a deadline can interrupt the bound.
func UpperBoundContext(ctx context.Context, in *model.Instance) (float64, error) {
	total := float64(in.TotalProfit())
	var sum float64
	for j := range in.Antennas {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		best := 0.0
		for _, alpha := range angular.Candidates(in, j) {
			items, _ := angular.WindowItems(in, j, alpha, nil)
			if len(items) == 0 {
				continue
			}
			if b := knapsack.FractionalBound(items, in.Antennas[j].Capacity); b > best {
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
