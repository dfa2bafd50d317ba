package core

import (
	"context"
	"fmt"
	"sort"

	"sectorpack/internal/angular"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// SolveGreedy is the successive best-window heuristic: antennas are
// processed in decreasing capacity order; each picks the orientation and
// customer subset maximizing its own profit over the still-unserved
// customers (candidate-orientation enumeration with a knapsack per
// candidate), and the served customers are removed.
//
// Guarantee sketch [reconstruction]: with an exact inner knapsack this is
// the successive-knapsack heuristic — each step captures at least a 1/m
// fraction of what the optimum still could, giving 1−(1−1/m)^m ≥ 1−1/e for
// identical antennas; with the FPTAS inner solver the factor picks up the
// usual (1−ε). Under DisjointAngles the candidate set per step is filtered
// to orientations whose sector keeps clear of previously placed serving
// sectors (and the ends of placed sectors join the candidate set, so the
// greedy can pack flush chains too).
func SolveGreedy(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	return SolveGreedyOrdered(ctx, in, opt, nil)
}

// SolveGreedyOrdered is SolveGreedy with an explicit antenna processing
// order (indices into the antenna slice); nil means the default
// capacity-descending order. Exposed for the order-ablation experiment.
//
// All steps share one angular.Engine, so each antenna's sweep is built once
// per solve rather than once per step, and every best-window search runs
// with Dantzig-bound pruning.
//
// Cancellation: ctx is checked before each greedy step and inside each
// step's candidate-window evaluation; a cancelled solve returns ctx.Err()
// with no partial assignment.
func SolveGreedyOrdered(ctx context.Context, in *model.Instance, opt Options, order []int) (model.Solution, error) {
	if err := validateForSolve(in); err != nil {
		return model.Solution{}, err
	}
	eng := angular.NewEngine(in)
	if err := eng.Prewarm(ctx); err != nil {
		return model.Solution{}, err
	}
	return solveGreedyWithEngine(ctx, in, opt, order, eng)
}

// solveGreedyWithEngine is the greedy loop over a caller-supplied engine,
// so SolveLocalSearch can run its greedy seed and its reorientation moves
// on one shared set of sweeps instead of building them twice. The engine
// caches only instance geometry (sweeps and candidate angles), never
// assignment state, so sharing cannot change results.
func solveGreedyWithEngine(ctx context.Context, in *model.Instance, opt Options, order []int, eng *angular.Engine) (model.Solution, error) {
	n, m := in.N(), in.M()
	as := model.NewAssignment(n, m)
	sol := model.Solution{Algorithm: "greedy", Assignment: as}

	if order == nil {
		order = make([]int, m)
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(a, b int) bool {
			return in.Antennas[order[a]].Capacity > in.Antennas[order[b]].Capacity
		})
	} else if len(order) != m {
		return model.Solution{}, fmt.Errorf("core: order has %d entries for %d antennas", len(order), m)
	}

	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	var placed []geom.Interval // serving sectors placed so far (DisjointAngles)

	for _, j := range order {
		if err := ctx.Err(); err != nil {
			return model.Solution{}, err
		}
		win, err := bestWindowConstrained(ctx, eng, j, active, placed, opt.Knapsack)
		if err != nil {
			return model.Solution{}, err
		}
		if len(win.Customers) == 0 {
			continue
		}
		as.Orientation[j] = win.Alpha
		for _, i := range win.Customers {
			as.Owner[i] = j
			active[i] = false
		}
		sol.Profit += win.Profit
		if in.Variant == model.DisjointAngles {
			placed = append(placed, geom.NewInterval(win.Alpha, in.Antennas[j].Rho))
		}
	}
	return withBound(ctx, in, opt, sol)
}

// bestWindowConstrained is Engine.BestWindow extended with the
// DisjointAngles placement constraint: the window's sector interior must
// not intersect any already placed serving sector. The candidate set is
// augmented with the ends of placed sectors so flush packing is reachable;
// ends that coincide (within geom.Eps) with an existing candidate — flush
// chains anchored at a customer angle do this systematically — are dropped
// so the same window is never knapsack-solved twice. Evaluation shares
// BestWindow's pruned, parallel machinery via Engine.BestWindowAt.
func bestWindowConstrained(ctx context.Context, eng *angular.Engine, antenna int, active []bool, placed []geom.Interval, kopt knapsack.Options) (angular.Window, error) {
	if placed == nil {
		return eng.BestWindow(ctx, antenna, active, kopt)
	}
	in := eng.Instance()
	rho := in.Antennas[antenna].Rho
	base := eng.Candidates(antenna)
	cands := make([]float64, 0, len(base)+len(placed))
	cands = append(cands, base...)
	for _, iv := range placed {
		end := iv.End()
		if !nearAngle(base, cands[len(base):], end) {
			cands = append(cands, end)
		}
	}
	kept := cands[:0] // filter in place: disjointness against placed sectors
	for _, alpha := range cands {
		sector := geom.NewInterval(alpha, rho)
		ok := true
		for _, iv := range placed {
			if sector.InteriorsOverlap(iv) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, alpha)
		}
	}
	return eng.BestWindowAt(ctx, antenna, kept, active, kopt)
}

// nearAngle reports whether alpha lies within geom.Eps of an entry of the
// sorted slice (searched in O(log n)) or of the extras slice (scanned;
// callers pass the handful of already-appended sector ends).
func nearAngle(sorted, extras []float64, alpha float64) bool {
	k := sort.SearchFloat64s(sorted, alpha)
	if k < len(sorted) && sorted[k]-alpha <= geom.Eps {
		return true
	}
	if k > 0 && alpha-sorted[k-1] <= geom.Eps {
		return true
	}
	// The 2π seam: an end just below 2π can duplicate a candidate at ~0
	// and vice versa.
	if len(sorted) > 0 {
		if geom.WrapGap(alpha, sorted[0]) <= geom.Eps || geom.WrapGap(sorted[len(sorted)-1], alpha) <= geom.Eps {
			return true
		}
	}
	for _, x := range extras {
		if geom.AnglesClose(x, alpha) {
			return true
		}
	}
	return false
}
