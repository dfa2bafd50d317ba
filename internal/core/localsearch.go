package core

import (
	"context"
	"slices"

	"sectorpack/internal/angular"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/mkp"
	"sectorpack/internal/model"
)

// SolveLocalSearch runs greedy, then alternates two improvement moves to a
// local optimum (or localSearchRounds sweeps):
//
//  1. assignment polish: mkp.LocalSearch at the current orientations
//     (insert unserved customers, profitable swaps, relocations);
//  2. reorientation: for each antenna in turn, release its customers and
//     re-run the constrained best-window search over them plus the
//     unserved pool, keeping the change when it strictly improves.
//
// The result is never worse than greedy.
//
// Cancellation: ctx is checked before every reorientation move and every
// polish round; a cancelled solve returns ctx.Err(), discarding the
// partial improvement state.
func SolveLocalSearch(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	if err := validateForSolve(in); err != nil {
		return model.Solution{}, err
	}
	// One engine for the greedy seed AND every reorientation of every
	// round: the per-antenna sweeps depend only on instance geometry, not
	// on the evolving assignment, so they are built once (in parallel,
	// over the shared columnar view) and reused throughout.
	eng := angular.NewEngine(in)
	if err := eng.Prewarm(ctx); err != nil {
		return model.Solution{}, err
	}
	return solveLocalSearchWithEngine(ctx, in, opt, eng)
}

// solveLocalSearchWithEngine is the local-search loop over a caller-supplied
// engine; SolveLocalSearchWarm hands it a delta session's long-lived engine
// so re-solves skip the sweep rebuild.
func solveLocalSearchWithEngine(ctx context.Context, in *model.Instance, opt Options, eng *angular.Engine) (model.Solution, error) {
	sol, err := solveGreedyWithEngine(ctx, in, opt, nil, eng, nil)
	if err != nil {
		return model.Solution{}, err
	}
	sol.Algorithm = "localsearch"
	n, m := in.N(), in.M()
	if n == 0 || m == 0 {
		return sol, nil
	}
	for round := 0; round < localSearchRounds; round++ {
		improved := false

		// Move 2 first: reorientation tends to unlock more.
		for j := 0; j < m; j++ {
			if err := ctx.Err(); err != nil {
				return model.Solution{}, err
			}
			cur := sol.Assignment
			// Customers currently on j plus the unserved pool are up for
			// grabs; everyone else stays put.
			active := make([]bool, n)
			var released int64
			for i, owner := range cur.Owner {
				if owner == model.Unassigned || owner == j {
					active[i] = true
					if owner == j {
						released += in.Customers[i].Profit
					}
				}
			}
			placed := placedSectors(in, cur, j)
			win, err := bestWindowConstrained(ctx, eng, j, active, placed, opt.Knapsack)
			if err != nil {
				return model.Solution{}, err
			}
			if win.Profit > released {
				for i, owner := range cur.Owner {
					if owner == j {
						cur.Owner[i] = model.Unassigned
					}
				}
				cur.Orientation[j] = win.Alpha
				for _, i := range win.Customers {
					cur.Owner[i] = j
				}
				sol.Profit += win.Profit - released
				improved = true
			}
		}

		// Move 1: global assignment polish at fixed orientations.
		if err := ctx.Err(); err != nil {
			return model.Solution{}, err
		}
		p := assignmentProblem(in, sol.Assignment)
		start := mkp.Result{Profit: sol.Profit, Bin: slices.Clone(sol.Assignment.Owner)}
		polished, err := mkp.LocalSearch(p, start, localSearchRounds)
		if err != nil {
			return model.Solution{}, err
		}
		if polished.Profit > sol.Profit {
			copy(sol.Assignment.Owner, polished.Bin)
			sol.Profit = polished.Profit
			improved = true
		}
		if !improved {
			break
		}
	}
	return sol, nil
}

// placedSectors returns the serving sectors of all antennas except skip,
// for the DisjointAngles constraint; nil for other variants. Note nil vs
// empty matters to bestWindowConstrained: nil disables the disjointness
// filter, while an empty non-nil slice keeps it (with nothing placed yet).
func placedSectors(in *model.Instance, as *model.Assignment, skip int) []geom.Interval {
	if in.Variant != model.DisjointAngles {
		return nil
	}
	out := []geom.Interval{}
	for j := range in.Antennas {
		if j == skip || !usedBy(as, j) {
			continue
		}
		out = append(out, geom.NewInterval(as.Orientation[j], in.Antennas[j].Rho))
	}
	return out
}

// assignmentProblem builds the restricted MKP induced by fixed
// orientations; under DisjointAngles idle antennas are excluded from
// eligibility (their sector is not actually cleared).
func assignmentProblem(in *model.Instance, as *model.Assignment) *mkp.Problem {
	n, m := in.N(), in.M()
	p := &mkp.Problem{
		Items:      make([]knapsack.Item, n),
		Capacities: make([]int64, m),
		Eligible:   make([][]bool, n),
	}
	for i, c := range in.Customers {
		p.Items[i] = knapsack.Item{Weight: c.Demand, Profit: c.Profit}
		p.Eligible[i] = make([]bool, m)
	}
	for j, a := range in.Antennas {
		p.Capacities[j] = a.Capacity
		idleDisjoint := in.Variant == model.DisjointAngles && !usedBy(as, j)
		for i, c := range in.Customers {
			p.Eligible[i][j] = !idleDisjoint && a.Covers(as.Orientation[j], c)
		}
	}
	return p
}
