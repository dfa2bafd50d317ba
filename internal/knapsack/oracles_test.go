package knapsack

import (
	"fmt"
	"math/bits"
	"sort"
)

// MaxMeetInMiddle is the largest item count MeetInMiddle accepts; 2^(n/2)
// subsets per half stays comfortably in memory up to n = 40.
const MaxMeetInMiddle = 40

// MeetInMiddle solves 0/1 knapsack exactly in O(2^{n/2}·n) by enumerating
// both halves, Pareto-pruning one, and binary-searching the combination.
// It is an algorithmically independent oracle for cross-checking the DPs
// and BranchBound, and handles n ≤ MaxMeetInMiddle.
func MeetInMiddle(items []Item, capacity int64) (Result, error) {
	if err := validate(items, capacity); err != nil {
		return Result{}, err
	}
	n := len(items)
	if n > MaxMeetInMiddle {
		return Result{}, fmt.Errorf("knapsack: MeetInMiddle limited to %d items, got %d", MaxMeetInMiddle, n)
	}
	half := n / 2
	left, right := items[:half], items[half:]

	type subset struct {
		weight int64
		profit int64
		mask   uint64
	}
	enumerate := func(part []Item) []subset {
		m := len(part)
		out := make([]subset, 0, 1<<m)
		for mask := uint64(0); mask < 1<<m; mask++ {
			var w, p int64
			rem := mask
			for rem != 0 {
				i := bits.TrailingZeros64(rem)
				rem &= rem - 1
				w += part[i].Weight
				p += part[i].Profit
			}
			if w <= capacity {
				out = append(out, subset{weight: w, profit: p, mask: mask})
			}
		}
		return out
	}

	ls := enumerate(left)
	rs := enumerate(right)
	// Pareto-prune the right half: sort by weight, keep only entries whose
	// profit strictly improves on all lighter ones.
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].weight != rs[b].weight {
			return rs[a].weight < rs[b].weight
		}
		return rs[a].profit > rs[b].profit
	})
	pruned := rs[:0]
	var bestProfit int64 = -1
	for _, s := range rs {
		if s.profit > bestProfit {
			pruned = append(pruned, s)
			bestProfit = s.profit
		}
	}
	rs = pruned

	var best subset
	var bestRight subset
	var bestTotal int64 = -1
	for _, l := range ls {
		rem := capacity - l.weight
		// binary search: last pruned entry with weight <= rem
		lo, hi := 0, len(rs)-1
		pos := -1
		for lo <= hi {
			mid := (lo + hi) / 2
			if rs[mid].weight <= rem {
				pos = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		if pos < 0 {
			continue
		}
		if total := l.profit + rs[pos].profit; total > bestTotal {
			bestTotal = total
			best = l
			bestRight = rs[pos]
		}
	}
	res := Result{Profit: bestTotal, Take: make([]bool, n)}
	if bestTotal < 0 {
		res.Profit = 0
		return res, nil
	}
	for i := 0; i < half; i++ {
		if best.mask&(1<<uint(i)) != 0 {
			res.Take[i] = true
		}
	}
	for i := 0; i < n-half; i++ {
		if bestRight.mask&(1<<uint(i)) != 0 {
			res.Take[half+i] = true
		}
	}
	return res, nil
}

// Greedy is the classical density greedy with the best-single-item
// fallback: fill by profit/weight density, then return the better of the
// greedy fill and the single most profitable item that fits. This is a
// 1/2-approximation (the two candidates together dominate the fractional
// optimum) and runs in O(n log n).
func Greedy(items []Item, capacity int64) (Result, error) {
	if err := validate(items, capacity); err != nil {
		return Result{}, err
	}
	n := len(items)
	fill := Result{Take: make([]bool, n)}
	remaining := capacity
	for _, i := range byDensity(items) {
		if items[i].Weight <= remaining {
			fill.Take[i] = true
			fill.Profit += items[i].Profit
			remaining -= items[i].Weight
		}
	}
	// best single item that fits
	bestIdx, bestProfit := -1, int64(-1)
	for i, it := range items {
		if it.Weight <= capacity && it.Profit > bestProfit {
			bestIdx, bestProfit = i, it.Profit
		}
	}
	if bestIdx >= 0 && bestProfit > fill.Profit {
		single := Result{Profit: bestProfit, Take: make([]bool, n)}
		single.Take[bestIdx] = true
		return single, nil
	}
	return fill, nil
}
