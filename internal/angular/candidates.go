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
//
// Engine is the package's one window API: every solver reads an antenna's
// candidate angles (Engine.Candidates), the members of a window at any
// angle (Engine.AppendMembers) and its best window (Engine.BestWindow,
// Engine.BestWindowAt) from an engine's cached per-antenna sweeps.
package angular

import "sectorpack/internal/geom"

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
