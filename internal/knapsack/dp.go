package knapsack

import (
	"fmt"
	"math"
	"sync"
)

// MaxDPCells bounds the table size (rows × columns) a DP solver will
// accept; beyond it the solver refuses and callers should fall back to
// BranchBound or the FPTAS. The rolling-row implementation below no longer
// materializes the full value table — memory is one row plus one decision
// BIT per cell (64× less than the former int64 table) — but the guard is
// kept at the historical threshold so the Solve dispatcher selects exactly
// the same method per input as it always has.
const MaxDPCells = 1 << 28

// tableFits reports whether a DP table of rows × (last+1) cells, for
// last >= 0, has at most budget cells. It divides rather than multiplies,
// so a last column near math.MaxInt64 cannot wrap the product.
func tableFits(rows int, last, budget int64) bool {
	return last < budget/int64(rows)
}

// dpScratch is the reusable workspace of the rolling-row DPs: one value row
// and a packed decision bitset (one bit per item×capacity or item×profit
// cell, recording whether taking the item improved that cell). Pooling it
// makes steady-state solver loops — greedy evaluates thousands of candidate
// windows per solve — allocate nothing beyond the returned Take slice.
type dpScratch struct {
	row  []int64
	bits []uint64
}

var dpPool = sync.Pool{New: func() any { return new(dpScratch) }}

// grow sizes the workspace for a rowLen-value row and bitCount decision
// bits, zeroing the bits (the row is initialized by each DP's own fill).
func (s *dpScratch) grow(rowLen, bitCount int) (row []int64, bits []uint64) {
	if cap(s.row) < rowLen {
		s.row = make([]int64, rowLen)
	}
	words := (bitCount + 63) / 64
	if cap(s.bits) < words {
		s.bits = make([]uint64, words)
	}
	s.row, s.bits = s.row[:rowLen], s.bits[:words]
	clear(s.bits)
	return s.row, s.bits
}

// DPByWeight solves 0/1 knapsack exactly by the textbook weight-indexed
// dynamic program in O(n·C) time. Memory is a single rolling row plus a
// packed decision bitset used to reconstruct the chosen subset; both come
// from a sync.Pool, so repeated calls allocate only the Take slice. It
// returns an error when the (virtual) table would exceed MaxDPCells.
func DPByWeight(items []Item, capacity int64) (Result, error) {
	if err := validate(items, capacity); err != nil {
		return Result{}, err
	}
	n := len(items)
	if !tableFits(n+1, capacity, MaxDPCells) {
		return Result{}, fmt.Errorf("knapsack: DPByWeight table %d×%d exceeds budget", n+1, uint64(capacity)+1)
	}
	w := int(capacity)
	sc := dpPool.Get().(*dpScratch)
	defer dpPool.Put(sc)
	row, bits := sc.grow(w+1, n*(w+1))
	clear(row)
	// row[c] = best profit within capacity c using the items seen so far.
	// Iterating c downward makes the in-place update read previous-item
	// values only; bit (i-1)·(w+1)+c records that taking item i improved
	// cell c — exactly the dp[i][c] != dp[i-1][c] condition the full-table
	// reconstruction used, so the chosen subset is bit-identical.
	for i := 1; i <= n; i++ {
		it := items[i-1]
		if it.Weight > int64(w) {
			continue
		}
		wi := int(it.Weight)
		base := (i - 1) * (w + 1)
		for c := w; c >= wi; c-- {
			if cand := row[c-wi] + it.Profit; cand > row[c] {
				row[c] = cand
				pos := base + c
				bits[pos>>6] |= 1 << uint(pos&63)
			}
		}
	}
	res := Result{Profit: row[w], Take: make([]bool, n)}
	c := w
	for i := n; i >= 1; i-- {
		pos := (i-1)*(w+1) + c
		if bits[pos>>6]&(1<<uint(pos&63)) != 0 {
			res.Take[i-1] = true
			c -= int(items[i-1].Weight)
		}
	}
	return res, nil
}

// DPByProfit solves 0/1 knapsack exactly by the profit-indexed dynamic
// program: row[p] is the least weight achieving profit exactly p. Runs in
// O(n·P) where P is the total profit; it is the engine behind the FPTAS.
// Like DPByWeight it keeps one rolling row plus a pooled decision bitset.
// Returns an error when the (virtual) table would exceed MaxDPCells.
func DPByProfit(items []Item, capacity int64) (Result, error) {
	if err := validate(items, capacity); err != nil {
		return Result{}, err
	}
	n := len(items)
	P := totalProfit(items)
	if !tableFits(n+1, P, MaxDPCells) {
		if P == math.MaxInt64 { // totalProfit saturated: the true sum is unknown
			return Result{}, fmt.Errorf("knapsack: DPByProfit table %d×(profit sum ≥ MaxInt64) exceeds budget", n+1)
		}
		return Result{}, fmt.Errorf("knapsack: DPByProfit table %d×%d exceeds budget", n+1, P+1)
	}
	const inf = int64(1) << 62
	sc := dpPool.Get().(*dpScratch)
	defer dpPool.Put(sc)
	row, bits := sc.grow(int(P+1), n*int(P+1))
	for p := range row {
		row[p] = inf
	}
	row[0] = 0
	// Iterating p downward keeps row[p-profit] at its previous-item value;
	// a zero-profit item can never strictly lower row[p] (weights are
	// non-negative), matching the full-table transition, so it is skipped.
	for i := 1; i <= n; i++ {
		it := items[i-1]
		if it.Profit == 0 {
			continue
		}
		base := (i - 1) * int(P+1)
		for p := P; p >= it.Profit; p-- {
			if prev := row[p-it.Profit]; prev < inf {
				if cand := prev + it.Weight; cand < row[p] {
					row[p] = cand
					pos := base + int(p)
					bits[pos>>6] |= 1 << uint(pos&63)
				}
			}
		}
	}
	var bestP int64
	for p := P; p >= 0; p-- {
		if row[p] <= capacity {
			bestP = p
			break
		}
	}
	res := Result{Profit: bestP, Take: make([]bool, n)}
	p := bestP
	for i := n; i >= 1; i-- {
		pos := (i-1)*int(P+1) + int(p)
		if bits[pos>>6]&(1<<uint(pos&63)) != 0 {
			res.Take[i-1] = true
			p -= items[i-1].Profit
		}
	}
	return res, nil
}

// scaledPool recycles the FPTAS's scaled-item slice.
var scaledPool = sync.Pool{New: func() any { return new([]Item) }}

// ValidEps reports whether eps is an approximation parameter the FPTAS
// accepts: a number in (0, 1), so not NaN.
func ValidEps(eps float64) bool { return eps > 0 && eps < 1 }

// FPTAS returns a (1−eps)-approximate solution by scaling profits down to
// make the profit-indexed DP polynomial: classical Ibarra–Kim. eps must lie
// in (0, 1). The returned Result reports the true (unscaled) profit of the
// chosen subset.
func FPTAS(items []Item, capacity int64, eps float64) (Result, error) {
	if !ValidEps(eps) {
		return Result{}, fmt.Errorf("knapsack: FPTAS eps %v outside (0,1)", eps)
	}
	if err := validate(items, capacity); err != nil {
		return Result{}, err
	}
	n := len(items)
	if n == 0 {
		return Result{Take: []bool{}}, nil
	}
	var pmax int64
	for _, it := range items {
		if it.Weight <= capacity && it.Profit > pmax {
			pmax = it.Profit
		}
	}
	if pmax == 0 {
		// Nothing profitable fits individually; the optimum is 0 profit.
		return Result{Take: make([]bool, n)}, nil
	}
	k := eps * float64(pmax) / float64(n)
	if k < 1 {
		k = 1 // profits already small: the DP below is exact
	}
	sp := scaledPool.Get().(*[]Item)
	defer scaledPool.Put(sp)
	if cap(*sp) < n {
		*sp = make([]Item, n)
	}
	scaled := (*sp)[:n]
	for i, it := range items {
		scaled[i] = Item{Weight: it.Weight, Profit: int64(float64(it.Profit) / k)}
		if it.Weight > capacity {
			// Unusable item: zero it out so it cannot inflate the table.
			scaled[i] = Item{Weight: capacity + 1, Profit: 0}
		}
	}
	res, err := DPByProfit(scaled, capacity)
	if err != nil {
		return Result{}, fmt.Errorf("knapsack: FPTAS inner DP: %w", err)
	}
	// Re-price the chosen subset with true profits.
	var trueProfit int64
	for i, t := range res.Take {
		if t {
			trueProfit += items[i].Profit
		}
	}
	return Result{Profit: trueProfit, Take: res.Take}, nil
}
