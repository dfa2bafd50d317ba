package core

import (
	"context"
	"math"
	"math/rand"

	"sectorpack/internal/angular"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// AnnealSteps is the default Metropolis step budget of SolveAnneal.
const AnnealSteps = 20_000

// SolveAnneal refines the greedy solution by simulated annealing over the
// joint orientation/assignment space. Two move kinds alternate:
//
//   - reassign: a random uncovered-or-covered customer is inserted into,
//     moved between, or evicted from antennas whose current sector covers
//     it (capacity permitting);
//   - reorient: a random antenna jumps to a random candidate orientation
//     and re-solves its knapsack over its own plus the unassigned
//     customers (other antennas' assignments are untouched).
//
// Acceptance follows the Metropolis rule on the profit delta with a
// geometric cooling schedule; the best solution ever visited is returned,
// so the result never falls below greedy. Deterministic in Options.Seed.
//
// DisjointAngles: reorientation candidates that would overlap another
// serving sector are rejected, preserving feasibility throughout.
//
// The greedy seed, the candidate orientations and the reorientation
// windows all come from one prewarmed angular.Engine.
//
// Cancellation: ctx is checked once per Metropolis step; a cancelled solve
// returns ctx.Err() and discards the annealing state.
func SolveAnneal(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	if err := validateForSolve(in); err != nil {
		return model.Solution{}, err
	}
	eng := angular.NewEngine(in)
	if err := eng.Prewarm(ctx); err != nil {
		return model.Solution{}, err
	}
	sol, err := solveGreedyWithEngine(ctx, in, opt, nil, eng, nil)
	if err != nil {
		return model.Solution{}, err
	}
	sol.Algorithm = "anneal"
	n, m := in.N(), in.M()
	if n == 0 || m == 0 {
		return sol, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x5ee7))

	cur := sol.Assignment.Clone()
	curProfit := sol.Profit
	best := cur.Clone()
	bestProfit := curProfit
	load := cur.Load(in)
	var ids []int
	var items []knapsack.Item

	temp := initialTemp(in)
	cooling := math.Pow(1e-3, 1.0/float64(AnnealSteps)) // temp decays to 0.1% over the run

	accept := func(delta int64) bool {
		if delta >= 0 {
			return true
		}
		if temp <= 0 {
			return false
		}
		return rng.Float64() < math.Exp(float64(delta)/temp)
	}

	for step := 0; step < AnnealSteps; step++ {
		if err := ctx.Err(); err != nil {
			return model.Solution{}, err
		}
		temp *= cooling
		if rng.Intn(3) < 2 { // 2/3 reassign, 1/3 reorient
			i := rng.Intn(n)
			c := in.Customers[i]
			from := cur.Owner[i]
			// Choose a target: a covering antenna with room, or eviction.
			j := rng.Intn(m + 1)
			if j == m { // eviction
				if from == model.Unassigned {
					continue
				}
				if accept(-c.Profit) {
					cur.Owner[i] = model.Unassigned
					load[from] -= c.Demand
					curProfit -= c.Profit
				}
				continue
			}
			if j == from || !in.Antennas[j].Covers(cur.Orientation[j], c) {
				continue
			}
			if in.Variant == model.DisjointAngles && !usedBy(cur, j) {
				continue // idle antennas hold no cleared sector
			}
			if load[j]+c.Demand > in.Antennas[j].Capacity {
				continue
			}
			var delta int64
			if from == model.Unassigned {
				delta = c.Profit
			}
			if accept(delta) {
				if from != model.Unassigned {
					load[from] -= c.Demand
				}
				cur.Owner[i] = j
				load[j] += c.Demand
				curProfit += delta
			}
		} else {
			j := rng.Intn(m)
			cands := eng.Candidates(j)
			if len(cands) == 0 {
				continue
			}
			alpha := cands[rng.Intn(len(cands))]
			if in.Variant == model.DisjointAngles && overlapsServing(in, cur, j, alpha) {
				continue
			}
			// Re-solve antenna j's knapsack over its customers plus the pool.
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
			ids = eng.AppendMembers(ids[:0], j, alpha, active)
			items = items[:0]
			for _, i := range ids {
				items = append(items, knapsack.Item{Weight: in.Customers[i].Demand, Profit: in.Customers[i].Profit})
			}
			var take []int
			var gained int64
			if len(items) > 0 {
				res, _, err := knapsack.Solve(items, in.Antennas[j].Capacity, opt.Knapsack)
				if err != nil {
					return model.Solution{}, err
				}
				gained = res.Profit
				for k, tk := range res.Take {
					if tk {
						take = append(take, ids[k])
					}
				}
			}
			if accept(gained - released) {
				for i, owner := range cur.Owner {
					if owner == j {
						cur.Owner[i] = model.Unassigned
					}
				}
				cur.Orientation[j] = alpha
				var l int64
				for _, i := range take {
					cur.Owner[i] = j
					l += in.Customers[i].Demand
				}
				load[j] = l
				curProfit += gained - released
			}
		}
		if curProfit > bestProfit {
			bestProfit = curProfit
			best = cur.Clone()
		}
	}
	if bestProfit > sol.Profit {
		sol.Assignment = best
		sol.Profit = bestProfit
	}
	return sol, nil
}

// initialTemp scales the starting temperature to the demand landscape: a
// few median-profit moves should be freely acceptable at the start.
func initialTemp(in *model.Instance) float64 {
	var sum int64
	for _, c := range in.Customers {
		sum += c.Profit
	}
	if in.N() == 0 {
		return 1
	}
	return 2 * float64(sum) / float64(in.N())
}

// overlapsServing reports whether orienting antenna j at alpha would
// overlap another serving sector's interior.
func overlapsServing(in *model.Instance, as *model.Assignment, j int, alpha float64) bool {
	iv := geom.NewInterval(alpha, in.Antennas[j].Rho)
	for k := range in.Antennas {
		if k == j || !usedBy(as, k) {
			continue
		}
		if iv.InteriorsOverlap(geom.NewInterval(as.Orientation[k], in.Antennas[k].Rho)) {
			return true
		}
	}
	return false
}
