// Package exact provides the ground-truth solver for small sector-packing
// instances: it enumerates candidate orientation tuples (exhaustively, with
// a pooled-capacity pruning bound) and solves the remaining restricted
// multiple-knapsack exactly at each tuple. Exponential in both the antenna
// count and (through the MKP) the customer count, it exists to calibrate
// the approximation algorithms in experiments E1/E6/E7/E8, not to scale.
//
// Candidate sets: for the Sectors and Angles variants the customer angles
// suffice (candidate-orientation lemma). For DisjointAngles the optimal
// sectors may be packed flush in chains, so the candidate set per antenna
// is enlarged to all customer angles plus every sum of widths of a subset
// of the other antennas (the chain discretization).
package exact

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sectorpack/internal/angular"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/mkp"
	"sectorpack/internal/model"
)

// Limits bounds the search so a misplaced call cannot hang a test run.
type Limits struct {
	// MaxTuples caps the number of orientation tuples examined; zero
	// means DefaultMaxTuples.
	MaxTuples int64
	// MKPNodes caps each per-tuple MKP search; zero means a generous
	// default.
	MKPNodes int64
}

// DefaultMaxTuples is the orientation-tuple budget when none is given.
const DefaultMaxTuples = 5_000_000

// Solve computes the optimal solution of the instance, or an error when a
// budget or size guard trips. The returned Solution carries
// Algorithm = "exact" and UpperBound equal to its own profit.
//
// Cancellation: ctx is checked before every orientation tuple's MKP solve;
// a cancelled search discards all partial work and returns ctx.Err()
// promptly rather than finishing the sweep.
func Solve(ctx context.Context, in *model.Instance, lim Limits) (model.Solution, error) {
	return solve(ctx, in, lim, nil)
}

// solve is Solve with an optional restriction of the first antenna's
// candidate set (used by SolveParallel to partition the search).
func solve(ctx context.Context, in *model.Instance, lim Limits, firstOverride []float64) (model.Solution, error) {
	if err := in.Validate(); err != nil {
		return model.Solution{}, fmt.Errorf("exact: %w", err)
	}
	maxTuples := lim.MaxTuples
	if maxTuples == 0 {
		maxTuples = DefaultMaxTuples
	}
	mkpNodes := lim.MKPNodes
	if mkpNodes == 0 {
		mkpNodes = 1 << 40
	}
	if in.N() > mkp.MaxExactItems {
		return model.Solution{}, fmt.Errorf("exact: %d customers exceeds limit %d", in.N(), mkp.MaxExactItems)
	}
	n, m := in.N(), in.M()
	sol := model.Solution{Algorithm: "exact", Assignment: model.NewAssignment(n, m)}
	if n == 0 || m == 0 {
		return sol, nil
	}

	cands, err := candidateSets(ctx, in)
	if err != nil {
		return model.Solution{}, err
	}
	if firstOverride != nil {
		cands[0] = firstOverride
	}
	var total int64 = 1
	for _, cs := range cands {
		if err := ctx.Err(); err != nil {
			return model.Solution{}, err
		}
		total *= int64(len(cs))
		if total > maxTuples {
			return model.Solution{}, fmt.Errorf("exact: orientation tuple space exceeds budget %d", maxTuples)
		}
	}

	items := make([]knapsack.Item, n)
	for i, c := range in.Customers {
		items[i] = knapsack.Item{Weight: c.Demand, Profit: c.Profit}
	}
	capacities := make([]int64, m)
	for j, a := range in.Antennas {
		capacities[j] = a.Capacity
	}

	best := int64(-1)
	bestAssign := model.NewAssignment(n, m)
	alphas := make([]float64, m)
	eligible := make([][]bool, n)
	for i := range eligible {
		eligible[i] = make([]bool, m)
	}

	var rec func(j int) error
	rec = func(j int) error {
		if j == m {
			if err := ctx.Err(); err != nil {
				return err
			}
			if in.Variant == model.DisjointAngles && !disjointOK(in, alphas) {
				return nil
			}
			for i, c := range in.Customers {
				for k := 0; k < m; k++ {
					eligible[i][k] = in.Antennas[k].Covers(alphas[k], c)
				}
			}
			p := &mkp.Problem{Items: items, Capacities: capacities, Eligible: eligible}
			res, ok, err := mkp.Exact(p, mkpNodes)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("exact: per-tuple MKP node budget exhausted")
			}
			if res.Profit > best {
				best = res.Profit
				for k, a := range alphas {
					if math.IsNaN(a) {
						a = 0 // idle sentinel: park at 0, serves nobody
					}
					bestAssign.Orientation[k] = a
				}
				for i, b := range res.Bin {
					if b == mkp.Unassigned {
						bestAssign.Owner[i] = model.Unassigned
					} else {
						bestAssign.Owner[i] = b
					}
				}
			}
			return nil
		}
		for _, alpha := range cands[j] {
			alphas[j] = alpha
			if err := rec(j + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return model.Solution{}, err
	}
	if best < 0 {
		best = 0
	}
	sol.Assignment = bestAssign
	sol.Profit = best
	sol.UpperBound = float64(best)
	return sol, nil
}

// disjointOK checks interior-disjointness of the placed sectors, skipping
// antennas switched off via the NaN sentinel. Requiring disjointness of
// every placed sector is sound because each antenna's candidate set also
// contains the off sentinel: a solution whose idle antennas cannot be
// parked disjointly is explored with those antennas off instead.
func disjointOK(in *model.Instance, alphas []float64) bool {
	ivs := make([]geom.Interval, 0, len(alphas))
	for j := range alphas {
		if math.IsNaN(alphas[j]) {
			continue
		}
		ivs = append(ivs, geom.NewInterval(alphas[j], in.Antennas[j].Rho))
	}
	return geom.Disjoint(ivs)
}

// candidateSets builds the per-antenna orientation candidates. Outside the
// DisjointAngles variant they are a prewarmed angular.Engine's candidate
// angles — one shared columnar view, radial pre-filter, per-antenna
// fan-out — instead of an O(n log n) scan-and-sort per antenna; ctx is
// consulted per antenna in either branch so a daemon deadline can
// interrupt the chain enumeration. The slices are read-only.
func candidateSets(ctx context.Context, in *model.Instance) ([][]float64, error) {
	m := in.M()
	out := make([][]float64, m)
	if in.Variant != model.DisjointAngles {
		eng := angular.NewEngine(in)
		if err := eng.Prewarm(ctx); err != nil {
			return nil, err
		}
		for j := range out {
			if out[j] = eng.Candidates(j); len(out[j]) == 0 {
				out[j] = []float64{0}
			}
		}
		return out, nil
	}
	for j := 0; j < m; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Chain discretization. Shifting every sector of an optimal
		// solution counterclockwise (decreasing α) until blocked leaves
		// each sector either end-anchored (α + ρ = θ_x for a covered x)
		// or flush after its predecessor, so chain members start at
		// θ_x − ρ_head − (sum of intermediate widths): the candidate set
		// is θ_i minus the antenna's own width minus every subset-sum of
		// the other antennas' widths. The mirrored (clockwise) argument
		// yields the additive family θ_i + subset sums with start-anchored
		// tails; the union of both is enumerated for robustness — the
		// solver is the ground-truth oracle, so over-enumeration is
		// harmless while under-enumeration is a correctness bug (it once
		// missed optima reachable only through end-anchored heads).
		others := make([]float64, 0, m-1)
		for k := 0; k < m; k++ {
			if k != j {
				others = append(others, in.Antennas[k].Rho)
			}
		}
		sums := subsetSums(others)
		seen := make([]float64, 0, 2*in.N()*len(sums))
		for _, c := range in.Customers {
			for _, s := range sums {
				seen = append(seen, geom.NormAngle(c.Theta+s))
				seen = append(seen, geom.NormAngle(c.Theta-in.Antennas[j].Rho-s))
			}
		}
		sort.Float64s(seen)
		out[j] = dedup(seen)
		if len(out[j]) == 0 {
			out[j] = []float64{0}
		}
		// The off sentinel lets the enumeration switch this antenna off
		// entirely (an idle antenna is exempt from disjointness, so it
		// must not constrain the serving sectors' placement).
		out[j] = append(out[j], math.NaN())
	}
	return out, nil
}

// subsetSums returns all subset sums of ws (including 0).
func subsetSums(ws []float64) []float64 {
	sums := []float64{0}
	for _, w := range ws {
		cur := len(sums)
		for k := 0; k < cur; k++ {
			sums = append(sums, sums[k]+w)
		}
	}
	return sums
}

func dedup(sorted []float64) []float64 {
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
