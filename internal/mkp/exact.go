package mkp

import (
	"fmt"

	"sectorpack/internal/knapsack"
)

// MaxExactItems bounds the instance size Exact accepts; the search is
// exponential in the item count.
const MaxExactItems = 24

// Exact solves restricted MKP optimally by depth-first search over items in
// density order, assigning each item to one of its eligible bins or to no
// bin, pruning with the single-knapsack fractional bound over the pooled
// remaining capacity (a valid relaxation: merging bins and dropping
// eligibility only enlarges the feasible set). maxNodes caps the search;
// when exhausted ok is false and the incumbent is returned.
func Exact(p *Problem, maxNodes int64) (res Result, ok bool, err error) {
	if err := p.Validate(); err != nil {
		return Result{}, false, err
	}
	n, m := len(p.Items), len(p.Capacities)
	if n > MaxExactItems {
		return Result{}, false, fmt.Errorf("mkp: Exact limited to %d items, got %d", MaxExactItems, n)
	}
	// Density order strengthens the bound early.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// simple insertion sort by density descending
	for a := 1; a < n; a++ {
		for b := a; b > 0; b-- {
			ib, ip := p.Items[order[b]], p.Items[order[b-1]]
			if knapsack.CrossCmp(ib.Profit, maxI64(ip.Weight, 1), ip.Profit, maxI64(ib.Weight, 1)) > 0 {
				order[b], order[b-1] = order[b-1], order[b]
			} else {
				break
			}
		}
	}
	sorted := make([]knapsack.Item, n)
	for k, i := range order {
		sorted[k] = p.Items[i]
	}

	best := int64(-1)
	bestBin := make([]int, n) // indexed by sorted position
	curBin := make([]int, n)
	load := make([]int64, m)
	var nodes int64
	budgetHit := false

	var dfs func(k int, curProfit int64)
	dfs = func(k int, curProfit int64) {
		nodes++
		if nodes > maxNodes {
			budgetHit = true
			return
		}
		if curProfit > best {
			best = curProfit
			copy(bestBin, curBin[:k])
			for t := k; t < n; t++ {
				bestBin[t] = Unassigned
			}
		}
		if k == n || budgetHit {
			return
		}
		// Bound: pooled-capacity fractional knapsack of the remaining items.
		var pool int64
		for j := 0; j < m; j++ {
			pool += p.Capacities[j] - load[j]
		}
		if curProfit+int64(knapsack.FractionalBound(sorted[k:], pool)) <= best {
			return
		}
		item := sorted[k]
		origIdx := order[k]
		for j := 0; j < m && !budgetHit; j++ {
			if !p.eligible(origIdx, j) || load[j]+item.Weight > p.Capacities[j] {
				continue
			}
			curBin[k] = j
			load[j] += item.Weight
			dfs(k+1, curProfit+item.Profit)
			load[j] -= item.Weight
		}
		curBin[k] = Unassigned
		dfs(k+1, curProfit)
	}
	dfs(0, 0)

	res = emptyResult(n)
	res.Profit = best
	for k, b := range bestBin {
		res.Bin[order[k]] = b
	}
	if best < 0 {
		res.Profit = 0
	}
	return res, !budgetHit, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
