package core

import (
	"context"
	"sort"

	"sectorpack/internal/geom"
	"sectorpack/internal/model"
)

// SolveBaseline is the no-optimization reference point: antennas are
// spread uniformly around the circle (no candidate search, no knapsack)
// and customers are assigned greedily by profit density to any covering
// antenna with room. O(n log n + n·m); every real solver in the registry
// should beat it, and the experiments use it to size the value of the
// optimization machinery.
//
// Under DisjointAngles the antennas are instead packed flush from angle 0
// (prefix-sum starts), which is interior-disjoint for any widths summing
// to at most 2π (guaranteed by validation).
func SolveBaseline(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	if err := validateForSolve(in); err != nil {
		return model.Solution{}, err
	}
	if err := ctx.Err(); err != nil {
		return model.Solution{}, err
	}
	n, m := in.N(), in.M()
	as := model.NewAssignment(n, m)
	sol := model.Solution{Algorithm: "baseline", Assignment: as}
	if n == 0 || m == 0 {
		return withBound(ctx, in, opt, sol)
	}
	if in.Variant == model.DisjointAngles {
		var acc float64
		for j, a := range in.Antennas {
			if err := ctx.Err(); err != nil {
				return model.Solution{}, err
			}
			as.Orientation[j] = geom.NormAngle(acc)
			acc += a.Rho
		}
	} else {
		for j := range in.Antennas {
			as.Orientation[j] = geom.TwoPi * float64(j) / float64(m)
		}
	}
	// Profit-density order, then first covering antenna with room.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := in.Customers[order[a]], in.Customers[order[b]]
		return ca.Profit*cb.Demand > cb.Profit*ca.Demand
	})
	load := make([]int64, m)
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return model.Solution{}, err
		}
		c := in.Customers[i]
		for j, a := range in.Antennas {
			if load[j]+c.Demand <= a.Capacity && a.Covers(as.Orientation[j], c) {
				as.Owner[i] = j
				load[j] += c.Demand
				sol.Profit += c.Profit
				break
			}
		}
	}
	return withBound(ctx, in, opt, sol)
}
