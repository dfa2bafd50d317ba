// Package knapsack implements the 0/1 knapsack solvers that sector packing
// reduces to: once an antenna's orientation is fixed, choosing which covered
// customers to serve subject to the antenna's capacity is exactly 0/1
// knapsack with weights = demands and profits = customer profits.
//
// The package offers the full classical toolbox:
//
//   - DPByWeight: exact O(n·C) dynamic program (pseudo-polynomial in the
//     capacity), the method of choice when capacities are small integers.
//   - DPByProfit: exact O(n·P) dynamic program over total profit, the basis
//     of the FPTAS.
//   - FPTAS: (1−ε)-approximation in O(n³/ε) by profit scaling.
//   - BranchBound: exact depth-first search with the Dantzig fractional
//     upper bound; fast in practice for n up to a few hundred.
//   - Solve: a dispatcher that picks an exact method when affordable and
//     falls back to the FPTAS.
//
// All solvers return the chosen subset aligned with the input order, so
// callers can map selections back to customers without bookkeeping.
package knapsack

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Item is one knapsack item.
type Item struct {
	Weight int64 // capacity consumed (customer demand); must be >= 0
	Profit int64 // objective contribution; must be >= 0
}

// Result is a solved knapsack: the total profit and the chosen subset in
// input order.
type Result struct {
	Profit int64
	Take   []bool
}

// Weight returns the total weight of the chosen subset.
func (r Result) Weight(items []Item) int64 {
	var w int64
	for i, t := range r.Take {
		if t {
			w += items[i].Weight
		}
	}
	return w
}

// Count returns the number of chosen items.
func (r Result) Count() int {
	n := 0
	for _, t := range r.Take {
		if t {
			n++
		}
	}
	return n
}

// validate rejects negative weights/profits and a negative capacity, which
// would silently corrupt every DP below.
func validate(items []Item, capacity int64) error {
	if capacity < 0 {
		return fmt.Errorf("knapsack: negative capacity %d", capacity)
	}
	for i, it := range items {
		if it.Weight < 0 {
			return fmt.Errorf("knapsack: item %d has negative weight %d", i, it.Weight)
		}
		if it.Profit < 0 {
			return fmt.Errorf("knapsack: item %d has negative profit %d", i, it.Profit)
		}
	}
	return nil
}

// totalProfit sums profits of all items, saturating at math.MaxInt64
// rather than wrapping.
func totalProfit(items []Item) int64 {
	var s int64
	for _, it := range items {
		if it.Profit > math.MaxInt64-s {
			return math.MaxInt64
		}
		s += it.Profit
	}
	return s
}

// CrossCmp compares a·b with c·d for non-negative operands, as
// cmp.Compare does, without overflow: the int64 products when every
// operand is below 2^31, so both products fit, and the 128-bit products
// otherwise. Density orders compare p_a/w_a with p_b/w_b as
// CrossCmp(p_a, w_b, p_b, w_a).
func CrossCmp(a, b, c, d int64) int {
	if (a|b|c|d)>>31 == 0 {
		return cmp.Compare(a*b, c*d)
	}
	hi1, lo1 := bits.Mul64(uint64(a), uint64(b))
	hi2, lo2 := bits.Mul64(uint64(c), uint64(d))
	if hi1 != hi2 {
		return cmp.Compare(hi1, hi2)
	}
	return cmp.Compare(lo1, lo2)
}

// byDensity returns item indices sorted by profit density (profit/weight)
// descending, with zero-weight items (infinite density) first and ties
// broken by higher profit. The ordering is shared by Greedy and the
// Dantzig bound so their analyses line up.
func byDensity(items []Item) []int {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		ia, ib := items[a], items[b]
		// compare ib.Profit/ib.Weight with ia.Profit/ia.Weight without division
		if ia.Weight == 0 || ib.Weight == 0 {
			if ia.Weight == 0 && ib.Weight == 0 {
				return cmp.Compare(ib.Profit, ia.Profit)
			}
			if ia.Weight == 0 {
				return -1
			}
			return 1
		}
		if c := CrossCmp(ib.Profit, ia.Weight, ia.Profit, ib.Weight); c != 0 {
			return c
		}
		return cmp.Compare(ib.Profit, ia.Profit)
	})
	return idx
}
