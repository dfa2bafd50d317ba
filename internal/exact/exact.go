// Package exact provides the ground-truth solver for small sector-packing
// instances: it enumerates candidate orientation tuples (exhaustively, with
// a pooled-capacity pruning bound) and solves the remaining restricted
// multiple-knapsack exactly at each tuple. Exponential in both the antenna
// count and (through the MKP) the customer count, it exists to calibrate
// the approximation algorithms in experiments E1/E6/E7/E8, not to scale.
//
// Solve is the one entry point; it fans the search out over the worker
// pool itself, with the same answer at every worker count.
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
	"sectorpack/internal/sweep"
)

// Limits bounds the search so a misplaced call cannot hang a test run.
type Limits struct {
	// MaxTuples caps the number of orientation tuples examined; zero
	// means DefaultMaxTuples.
	MaxTuples int64
}

// DefaultMaxTuples is the orientation-tuple budget when none is given.
const DefaultMaxTuples = 5_000_000

// mkpNodes caps each per-tuple MKP search; it is generous enough that the
// item-count guard (mkp.MaxExactItems) binds first in practice.
const mkpNodes = 1 << 40

// Solve computes the optimal solution of the instance, or an error when a
// budget or size guard trips. The returned Solution carries
// Algorithm = "exact" and UpperBound equal to its own profit.
//
// The candidate sets are built once and the budget is checked over the
// whole tuple space. The first antenna's candidates are then fanned out
// over angular.Workers() workers (inline at 1), each running the
// remaining antennas' recursion, and the branches are merged in candidate
// order: ties between equal-profit tuples break exactly as in a single
// scalar recursion, so the answer does not depend on the worker count.
//
// Cancellation: ctx is checked before every orientation tuple's MKP solve;
// a cancelled search discards all partial work and returns ctx.Err()
// promptly rather than finishing the sweep.
func Solve(ctx context.Context, in *model.Instance, lim Limits) (model.Solution, error) {
	if err := in.Validate(); err != nil {
		return model.Solution{}, fmt.Errorf("exact: %w", err)
	}
	maxTuples := lim.MaxTuples
	if maxTuples == 0 {
		maxTuples = DefaultMaxTuples
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

	s := &search{in: in, cands: cands, items: make([]knapsack.Item, n), capacities: make([]int64, m)}
	for i, c := range in.Customers {
		s.items[i] = knapsack.Item{Weight: c.Demand, Profit: c.Profit}
	}
	for j, a := range in.Antennas {
		s.capacities[j] = a.Capacity
	}
	jobs := make([]sweep.Job[branch], len(cands[0]))
	for k, alpha := range cands[0] {
		jobs[k] = func(jctx context.Context) (branch, error) { return s.branch(jctx, alpha) }
	}
	results, err := sweep.Run(ctx, jobs, sweep.Options{Workers: angular.Workers()})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return model.Solution{}, cerr // the caller's deadline, unwrapped
		}
		return model.Solution{}, err
	}
	best := branch{profit: -1}
	for _, r := range results {
		if r.profit > best.profit {
			best = r
		}
	}
	if best.profit >= 0 {
		sol.Assignment = best.assign
		sol.Profit = best.profit
	}
	sol.UpperBound = float64(sol.Profit)
	return sol, nil
}

// search holds one Solve's read-only inputs, shared by its branches.
type search struct {
	in         *model.Instance
	cands      [][]float64
	items      []knapsack.Item
	capacities []int64
}

// branch is the best tuple of one first-antenna candidate's subtree;
// profit is -1 when no tuple of the subtree was feasible.
type branch struct {
	profit int64
	assign *model.Assignment
}

// branch enumerates every tuple whose first orientation is alpha0, in
// candidate order, solving the restricted MKP at each and keeping the
// first strictly best one.
func (s *search) branch(ctx context.Context, alpha0 float64) (branch, error) {
	in := s.in
	n, m := in.N(), in.M()
	best := branch{profit: -1}
	alphas := make([]float64, m)
	alphas[0] = alpha0
	eligible := make([][]bool, n)
	for i := range eligible {
		eligible[i] = make([]bool, m)
	}
	p := &mkp.Problem{Items: s.items, Capacities: s.capacities, Eligible: eligible}

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
			res, ok, err := mkp.Exact(p, mkpNodes)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("exact: per-tuple MKP node budget exhausted")
			}
			if res.Profit > best.profit {
				if best.assign == nil {
					best.assign = model.NewAssignment(n, m)
				}
				best.profit = res.Profit
				for k, a := range alphas {
					if math.IsNaN(a) {
						a = 0 // idle sentinel: park at 0, serves nobody
					}
					best.assign.Orientation[k] = a
				}
				copy(best.assign.Owner, res.Bin)
			}
			return nil
		}
		for _, alpha := range s.cands[j] {
			alphas[j] = alpha
			if err := rec(j + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(1); err != nil {
		return branch{}, err
	}
	return best, nil
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
