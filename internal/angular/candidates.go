// Package angular implements the angular-combinatorics core of sector
// packing: candidate-orientation enumeration, best-single-window search,
// and an exact dynamic program for the disjoint-sectors variant.
//
// Everything rests on the candidate-orientation lemma: rotating a sector
// clockwise (increasing its start angle α) never loses a covered customer
// until α passes some covered customer's angle, so there is always an
// optimal solution in which every sector's start angle coincides with a
// customer angle — except in the disjoint variant, where a sector may
// instead be packed flush against its predecessor, forming "chains"
// anchored at a customer angle (see SolveDisjoint).
package angular

import (
	"context"
	"sort"

	"sectorpack/internal/cols"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
	"sectorpack/internal/sweep"
)

// Candidates returns the candidate start angles for the given antenna:
// the angles of all customers radially within reach, deduplicated and
// sorted ascending. By the candidate-orientation lemma these suffice for
// optimality in the Sectors and Angles variants.
func Candidates(in *model.Instance, antenna int) []float64 {
	a := in.Antennas[antenna]
	out := make([]float64, 0, in.N())
	for _, c := range in.Customers {
		if a.InRange(c) {
			out = append(out, c.Theta)
		}
	}
	sort.Float64s(out)
	return dedupAngles(out)
}

// CandidatesAll returns Candidates for every antenna at once, over one
// shared columnar view: the instance is sorted once (not scanned and
// sorted per antenna), each antenna's angles are gathered through the
// radial pre-filter, and on large instances the per-antenna work fans out
// across Workers() goroutines on sweep.Each. The merge is deterministic —
// antenna j's slice lands at index j and is a pure function of the view —
// so the output is identical to calling Candidates(in, j) for each j, on
// either the scalar or the parallel path.
//
// Cancellation: ctx is consulted before every antenna is claimed; a
// cancelled call returns ctx.Err() and no slices.
func CandidatesAll(ctx context.Context, in *model.Instance) ([][]float64, error) {
	m := len(in.Antennas)
	out := make([][]float64, m)
	if m == 0 {
		return out, ctx.Err()
	}
	v := cols.New(in)
	workers := Workers()
	if v.Len()*m < prewarmParallelMin {
		workers = 1
	}
	// Each worker reuses one position buffer across its antennas.
	err := sweep.Each(ctx, m, workers, func() *[]int32 { return new([]int32) }, func(pos *[]int32, j int) error {
		*pos = v.AppendEligible(in.Antennas[j], (*pos)[:0])
		angles := make([]float64, len(*pos))
		for t, p := range *pos {
			angles[t] = v.Theta[p] // ascending: positions are theta-sorted
		}
		out[j] = dedupAngles(angles)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// dedupAngles removes duplicates (within geom.Eps) from a sorted slice.
func dedupAngles(sorted []float64) []float64 {
	if len(sorted) == 0 {
		return sorted
	}
	out := sorted[:1]
	for _, a := range sorted[1:] {
		if a-out[len(out)-1] > geom.Eps {
			out = append(out, a)
		}
	}
	return out
}

// Covered returns the indices of customers covered by the antenna when
// oriented at alpha, skipping customers for which active[i] is false
// (active == nil means all customers are active).
func Covered(in *model.Instance, antenna int, alpha float64, active []bool) []int {
	a := in.Antennas[antenna]
	var out []int
	for i, c := range in.Customers {
		if active != nil && !active[i] {
			continue
		}
		if a.Covers(alpha, c) {
			out = append(out, i)
		}
	}
	return out
}

// WindowItems converts the covered customers of an oriented antenna into
// knapsack items, returning the items and the parallel customer indices.
func WindowItems(in *model.Instance, antenna int, alpha float64, active []bool) ([]knapsack.Item, []int) {
	ids := Covered(in, antenna, alpha, active)
	items := make([]knapsack.Item, len(ids))
	for k, i := range ids {
		items[k] = knapsack.Item{Weight: in.Customers[i].Demand, Profit: in.Customers[i].Profit}
	}
	return items, ids
}
