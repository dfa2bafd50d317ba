package core

import (
	"context"

	"sectorpack/internal/angular"
	"sectorpack/internal/exact"
	"sectorpack/internal/mkp"
	"sectorpack/internal/model"
)

// autoExactLimit is the instance size (customers) up to which SolveAuto
// prefers provably exact methods.
const autoExactLimit = 12

// SolveAuto picks the strongest affordable solver for the instance:
//
//   - tiny instances (n ≤ 12, small orientation space): exhaustive exact;
//   - DisjointAngles with few antennas: the exact chain DP (zero-width
//     antennas included — the DP serves them as degenerate rays);
//   - unit demands (Sectors/Angles): the flow solver (exact for m = 1);
//   - everything else: localsearch (greedy + polish).
//
// The chosen strategy is reported in Solution.Algorithm (prefixed with
// "auto/"), so callers can see what ran. The exact chain inherits
// Options.ExactLimits, so a caller-imposed tuple budget survives dispatch.
//
// Dispatch runs under SafeSolve: a panic in the chosen solver surfaces as
// a *PanicError, never as an unwinding panic in the caller.
func SolveAuto(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	if err := validateForSolve(in); err != nil {
		return model.Solution{}, err
	}
	sol, err := SafeSolve(ctx, in, opt, dispatchAuto, "auto")
	if err != nil {
		return model.Solution{}, err
	}
	sol.Algorithm = "auto/" + sol.Algorithm
	return sol, nil
}

func dispatchAuto(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	n, m := in.N(), in.M()
	if in.Variant == model.DisjointAngles {
		if m <= angular.MaxDisjointAntennas && n <= 40 {
			return angular.SolveDisjoint(ctx, in, opt.Knapsack)
		}
		return SolveLocalSearch(ctx, in, opt)
	}
	if n <= autoExactLimit && n <= mkp.MaxExactItems && m <= 2 {
		return exact.Solve(ctx, in, opt.ExactLimits)
	}
	if in.UnitDemand() && n > 0 {
		return SolveUnitFlow(ctx, in, opt)
	}
	return SolveLocalSearch(ctx, in, opt)
}
