package mkp

import (
	"fmt"
	"math/rand"
	"sort"

	"sectorpack/internal/knapsack"
	"sectorpack/internal/lp"
)

// LPRelax solves the fractional relaxation
//
//	max  Σ p_i x_{ij}
//	s.t. Σ_j x_{ij} ≤ 1            (each item at most once)
//	     Σ_i w_i x_{ij} ≤ C_j      (bin capacities)
//	     x ≥ 0, only eligible (i,j) pairs present
//
// returning the optimal value (an upper bound on the integral optimum) and
// the fractional solution indexed as x[i][j].
func LPRelax(p *Problem) (float64, [][]float64, error) {
	if err := p.Validate(); err != nil {
		return 0, nil, err
	}
	n, m := len(p.Items), len(p.Capacities)
	// Variable layout: one variable per eligible (i,j) pair.
	type pair struct{ i, j int }
	var pairs []pair
	varOf := make(map[pair]int)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if p.eligible(i, j) {
				varOf[pair{i, j}] = len(pairs)
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	nv := len(pairs)
	if nv == 0 {
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, m)
		}
		return 0, x, nil
	}
	c := make([]float64, nv)
	for k, pr := range pairs {
		c[k] = float64(p.Items[pr.i].Profit)
	}
	var a [][]float64
	var b []float64
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		any := false
		for j := 0; j < m; j++ {
			if k, ok := varOf[pair{i, j}]; ok {
				row[k] = 1
				any = true
			}
		}
		if any {
			a = append(a, row)
			b = append(b, 1)
		}
	}
	for j := 0; j < m; j++ {
		row := make([]float64, nv)
		any := false
		for i := 0; i < n; i++ {
			if k, ok := varOf[pair{i, j}]; ok {
				row[k] = float64(p.Items[i].Weight)
				any = true
			}
		}
		if any {
			a = append(a, row)
			b = append(b, float64(p.Capacities[j]))
		}
	}
	sol, err := lp.Maximize(c, a, b)
	if err != nil {
		return 0, nil, fmt.Errorf("mkp: LP relaxation: %w", err)
	}
	if sol.Status != lp.Optimal {
		return 0, nil, fmt.Errorf("mkp: LP relaxation terminated %v", sol.Status)
	}
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, m)
	}
	for k, pr := range pairs {
		x[pr.i][pr.j] = sol.X[k]
	}
	return sol.Value, x, nil
}

// RoundLP turns a fractional solution into a feasible integral one:
// randomized rounding by each item's fractional bin distribution, greedy
// repair of overloaded bins (evict lowest-density items), then a
// local-search polish. rng drives the rounding; trials > 1 keeps the best
// of several independent roundings.
func RoundLP(p *Problem, x [][]float64, rng *rand.Rand, trials int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if trials < 1 {
		trials = 1
	}
	n, m := len(p.Items), len(p.Capacities)
	best := emptyResult(n)
	for trial := 0; trial < trials; trial++ {
		res := emptyResult(n)
		load := make([]int64, m)
		// Round each item independently.
		for i := 0; i < n; i++ {
			u := rng.Float64()
			acc := 0.0
			for j := 0; j < m; j++ {
				acc += x[i][j]
				if u < acc {
					res.Bin[i] = j
					load[j] += p.Items[i].Weight
					break
				}
			}
		}
		// Repair: evict lowest-density items from overloaded bins.
		for j := 0; j < m; j++ {
			if load[j] <= p.Capacities[j] {
				continue
			}
			var members []int
			for i := 0; i < n; i++ {
				if res.Bin[i] == j {
					members = append(members, i)
				}
			}
			sort.Slice(members, func(a, b int) bool {
				ia, ib := p.Items[members[a]], p.Items[members[b]]
				// ascending density: evict the least valuable per unit first
				return knapsack.CrossCmp(ia.Profit, ib.Weight, ib.Profit, ia.Weight) < 0
			})
			for _, i := range members {
				if load[j] <= p.Capacities[j] {
					break
				}
				res.Bin[i] = Unassigned
				load[j] -= p.Items[i].Weight
			}
		}
		for i := 0; i < n; i++ {
			if res.Bin[i] != Unassigned {
				res.Profit += p.Items[i].Profit
			}
		}
		polished, err := LocalSearch(p, res, 50)
		if err != nil {
			return Result{}, err
		}
		if polished.Profit > best.Profit {
			best = polished
		}
	}
	return best, nil
}
