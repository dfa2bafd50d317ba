package core

import (
	"context"

	"sectorpack/internal/mkp"
	"sectorpack/internal/model"
)

// SolveLPRound fixes orientations with a greedy pass, then re-optimizes the
// customer-to-antenna assignment globally: it solves the fractional
// assignment LP at those orientations, rounds randomly (best of
// roundTrials), and repairs with local search. It strictly
// dominates plain greedy at the same orientations whenever rounding finds
// a better global assignment; the returned UpperBound is the instance-wide
// bound from UpperBound (the per-orientation LP value is NOT a bound on the
// true optimum, which may orient differently).
// Cancellation: the greedy pass checks ctx per step; ctx is re-checked
// before the LP relaxation and before rounding, so a cancelled solve
// returns ctx.Err() without entering the LP machinery.
func SolveLPRound(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	greedy, err := SolveGreedy(ctx, in, opt)
	if err != nil {
		return model.Solution{}, err
	}
	sol := model.Solution{
		Algorithm:  "lpround",
		Assignment: greedy.Assignment.Clone(),
		Profit:     greedy.Profit,
		UpperBound: greedy.UpperBound,
	}
	if in.N() == 0 || in.M() == 0 {
		return sol, nil
	}
	p := assignmentProblem(in, sol.Assignment)
	if err := ctx.Err(); err != nil {
		return model.Solution{}, err
	}
	_, x, err := mkp.LPRelax(p)
	if err != nil {
		return model.Solution{}, err
	}
	if err := ctx.Err(); err != nil {
		return model.Solution{}, err
	}
	rounded, err := mkp.RoundLP(p, x, opt.rng(), roundTrials)
	if err != nil {
		return model.Solution{}, err
	}
	if rounded.Profit > sol.Profit {
		copy(sol.Assignment.Owner, rounded.Bin)
		sol.Profit = rounded.Profit
	}
	return sol, nil
}

// usedBy reports whether antenna j serves at least one customer.
func usedBy(as *model.Assignment, j int) bool {
	for _, owner := range as.Owner {
		if owner == j {
			return true
		}
	}
	return false
}
