package angular

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"sectorpack/internal/cols"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// Sweep enumerates all candidate windows of one antenna with a rotating
// two-pointer over the customers sorted by angle: across the whole
// enumeration each customer enters and leaves the window once, so building
// every window's member list costs O(total member count) instead of the
// naive O(n) scan per candidate.
//
// A Sweep depends only on the instance geometry (positions, the antenna's
// radial range and width), not on which customers are currently active or
// where other antennas point, so one Sweep per antenna can be cached for
// the lifetime of a solve — Engine does exactly that. Beyond the sorted
// angles it carries the per-position demands/profits and a profit-density
// order, the raw material of the Dantzig fractional bound used to prune
// candidate windows before their knapsack is solved.
//
// General position caveat: a customer strictly less than geom.Eps *behind*
// a window's start angle (and not exactly at it) is treated as outside,
// whereas the tolerant geometric test would include it; such
// configurations only arise from sub-Eps angular gaps, which the
// generators never produce and real inputs cannot meaningfully encode.
type Sweep struct {
	thetas []float64 // sorted angles of in-range customers
	ids    []int32   // customer index per sorted position
	rho    float64

	weights []int64 // demand per sorted position
	profits []int64 // profit per sorted position
	density []int32 // positions in Dantzig order (profit density descending)

	marks stamps // dantzigSet's member positions
}

// newSweepFromView gathers the antenna's in-range customers from the
// theta-sorted columnar view: the radial pre-filter selects the eligible
// positions (cols.View.AppendEligible) and the columns are gathered in
// position order, which IS ascending-angle order — no per-antenna sort.
// Angle ties inherit the view's deterministic (theta, customer index)
// order; the previous per-antenna sort agreed with it on every input with
// distinct angles, and on the small tied fixtures in the tests, so sweep
// layouts — and everything downstream — are unchanged. sc is the caller's
// scratch; the sweep keeps none of it.
func newSweepFromView(v *cols.View, a model.Antenna, sc *buildScratch) *Sweep {
	s := &Sweep{rho: a.Rho}
	sc.pos = v.AppendEligible(a, sc.pos[:0])
	k := len(sc.pos)
	s.thetas = make([]float64, k)
	s.ids = make([]int32, k)
	s.weights = make([]int64, k)
	s.profits = make([]int64, k)
	s.density = make([]int32, k)
	for t, p := range sc.pos {
		s.thetas[t] = v.Theta[p]
		s.ids[t] = v.ID[p]
		s.weights[t] = v.Demand[p]
		s.profits[t] = v.Profit[p]
	}
	s.sortDensity(sc)
	return s
}

// buildScratch is the working memory sweep builds and merges reuse from
// one sweep to the next. Each Prewarm worker, and each Rebase, holds its
// own.
type buildScratch struct {
	pos  []int32  // eligible view positions
	keys []uint64 // radix keys, one per sweep position
	tmp  []int32  // radix scratch
}

// radixMax bounds the weights and profits dantzigOrder radix-sorts: every
// value up to 2^53 is an exact float64, so a quotient of two of them is
// correctly rounded.
const radixMax = 1 << 53

// radixMin is the list length below which dantzigOrder sorts with densityCmp:
// under it the radix sort's fixed histogram work (about 15 µs) costs more
// than the comparisons it saves; the two measured even near 256 positions.
// The choice never changes the order.
const radixMin = 256

// sortDensity fills s.density with the Dantzig order of the sweep's
// positions: profit/weight descending, zero-weight (infinite density)
// first, ties by higher profit then position — densityCmp's order, the
// comparator of knapsack's byDensity with an explicit final tie-break, so
// the order (and therefore every computed bound) is deterministic.
func (s *Sweep) sortDensity(sc *buildScratch) {
	for t := range s.density {
		s.density[t] = int32(t)
	}
	s.dantzigOrder(s.density, sc)
}

// dantzigOrder sorts order, positions of the sweep in ascending order,
// into densityCmp's order.
//
// When every weight and profit among them lies in [0, 2^53] the order is
// built without comparisons: a stable radix sort (cols.SortByKey) by
// profit descending, then by the float64 density p/w descending. Each
// quotient of two exact operands is correctly rounded, so equal ratios give
// equal keys and a larger ratio never gets a smaller key: the keys order
// positions as densityCmp does, except that distinct ratios may share a
// key. A run of equal keys whose exact densities differ is sorted again
// with densityCmp. Larger values, and short lists, take the comparator
// sort.
func (s *Sweep) dantzigOrder(order []int32, sc *buildScratch) {
	k := len(order)
	top, ok := s.maxProfit(order)
	if k < radixMin || !ok {
		slices.SortFunc(order, s.densityCmp)
		return
	}
	sc.keys = slices.Grow(sc.keys[:0], len(s.ids))[:len(s.ids)]
	sc.tmp = slices.Grow(sc.tmp[:0], k)[:k]
	keys := sc.keys
	for _, t := range order {
		keys[t] = uint64(top - s.profits[t])
	}
	cols.SortByKey(order, sc.tmp, keys, bits.Len64(uint64(top)))
	for _, t := range order {
		d := math.Inf(1)
		if w := s.weights[t]; w != 0 {
			d = float64(s.profits[t]) / float64(w)
		}
		keys[t] = infBits - math.Float64bits(d) // d ≥ 0: its bits order as its value
	}
	cols.SortByKey(order, sc.tmp, keys, bits.Len64(infBits))
	for lo := 0; lo < k; {
		hi, first := lo+1, order[lo]
		mixed := false
		for ; hi < k && keys[order[hi]] == keys[first]; hi++ {
			mixed = mixed || !s.sameDensity(first, order[hi])
		}
		if mixed {
			slices.SortFunc(order[lo:hi], s.densityCmp)
		}
		lo = hi
	}
}

// infBits is the bit pattern of +Inf, the largest of any non-negative
// float64.
const infBits = 0x7ff0000000000000

// maxProfit returns the largest profit at the positions in order, and
// whether every weight and profit there lies in [0, 2^53].
func (s *Sweep) maxProfit(order []int32) (int64, bool) {
	var top int64
	for _, t := range order {
		if uint64(s.weights[t]) > radixMax || uint64(s.profits[t]) > radixMax {
			return 0, false
		}
		top = max(top, s.profits[t])
	}
	return top, true
}

// sameDensity reports whether positions a and b have equal exact
// densities, zero weight counting as infinite.
func (s *Sweep) sameDensity(a, b int32) bool {
	wa, wb := s.weights[a], s.weights[b]
	if wa == 0 || wb == 0 {
		return wa == wb
	}
	return knapsack.CrossCmp(s.profits[b], wa, s.profits[a], wb) == 0
}

// densityCmp is the Dantzig order of positions a and b. It reads only
// their weights, profits and positions, and is total: distinct positions
// never compare equal.
func (s *Sweep) densityCmp(a, b int32) int {
	wa, wb := s.weights[a], s.weights[b]
	pa, pb := s.profits[a], s.profits[b]
	if wa == 0 || wb == 0 {
		if wa != wb {
			return cmp.Compare(wa, wb) // zero weight first
		}
	} else if c := knapsack.CrossCmp(pb, wa, pa, wb); c != 0 {
		return c
	}
	if pa != pb {
		return cmp.Compare(pb, pa)
	}
	return cmp.Compare(a, b)
}

// Len returns the number of in-range customers.
func (s *Sweep) Len() int { return len(s.ids) }

// forEachRange is the streaming core of the sweep: it calls fn for every
// distinct candidate window as a circular position range — the window's
// members are positions start, start+1, …, start+count−1 (mod Len) in the
// theta-sorted order — without materializing member lists. Start angles are
// deduplicated within geom.Eps, including across the 2π seam: the first
// sorted angle is skipped when it lies within Eps of the last one around
// the circle, which the plain adjacent-difference check used to miss (the
// seam pair would otherwise yield two near-identical candidate windows).
// Returning false stops the enumeration early.
func (s *Sweep) forEachRange(fn func(start, count int, alpha float64) bool) {
	n := len(s.ids)
	if n == 0 {
		return
	}
	e := 0 // exclusive end pointer in doubled-index space
	for start := 0; start < n; start++ {
		if start > 0 && s.thetas[start]-s.thetas[start-1] <= geom.Eps {
			continue // duplicate candidate angle
		}
		if start == 0 && n > 1 && geom.WrapGap(s.thetas[n-1], s.thetas[0]) <= geom.Eps {
			continue // duplicate of the last angle across the 2π seam
		}
		if e < start+1 {
			e = start + 1 // the window always contains its own start
		}
		for e < start+n {
			theta := s.thetas[e%n]
			if geom.AngleDist(s.thetas[start], theta) <= s.rho+geom.Eps {
				e++
			} else {
				break
			}
		}
		if !fn(start, e-start, s.thetas[start]) {
			return
		}
	}
}

// eachCovered calls fn with the sweep position of every customer covered
// by a window starting at alpha, using the same tolerance semantics as
// model.Antenna.Covers (geom.AngleBetween: Eps slack on both boundaries).
// Unlike forEachRange, alpha may be any angle — placed-sector ends, grid
// points — not just a customer angle. Positions come in circular sweep
// order from the window's start. Cost is O(log n + window size).
func (s *Sweep) eachCovered(alpha float64, fn func(p int)) {
	n := len(s.ids)
	if s.rho >= geom.TwoPi-geom.Eps {
		for p := 0; p < n; p++ {
			fn(p)
		}
		return
	}
	// The members form one contiguous circular run of sorted positions.
	// Over-approximate the run with a slightly widened arc located by
	// binary search, then filter each position with the exact predicate.
	lo := geom.NormAngle(alpha - 2*geom.Eps)
	span := s.rho + 4*geom.Eps
	idx0 := sort.SearchFloat64s(s.thetas, lo)
	for k := 0; k < n; k++ {
		p := idx0 + k
		if p >= n {
			p -= n
		}
		if geom.AngleDist(lo, s.thetas[p]) > span {
			break
		}
		if geom.AngleBetween(s.thetas[p], alpha, s.rho) {
			fn(p)
		}
	}
}

// appendMembers appends to dst the active customers (active == nil: all)
// of the window starting at alpha, in ascending customer index: the order
// of a scan over every customer, which the knapsack item order follows.
func (s *Sweep) appendMembers(dst []int, alpha float64, active []bool) []int {
	off := len(dst)
	s.eachCovered(alpha, func(p int) {
		if i := int(s.ids[p]); active == nil || active[i] {
			dst = append(dst, i)
		}
	})
	slices.Sort(dst[off:])
	return dst
}
