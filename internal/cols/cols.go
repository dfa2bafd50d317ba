// Package cols provides the columnar (struct-of-arrays) read-only view of
// a problem instance that the angular hot path runs on.
//
// A View lays the customer fields out as parallel columns sorted by angle
// once per instance, so every per-antenna sweep gathers its in-range subset
// with a sequential pass over flat arrays instead of re-sorting and
// pointer-chasing []model.Customer structs per antenna. On top of the
// angular order it carries a radius-sorted permutation — the spatial radial
// pre-filter: an antenna's eligible customers occupy one contiguous run of
// that index (eligibility is a closed radius interval, model.RadialBounds),
// so selective antennas locate their candidates with two binary searches
// plus an O(k) radix sort of their positions instead of scanning all n
// customers.
// Both orders come from a stable LSD radix sort of an index permutation on
// an order-preserving integer image of the float keys (Order).
//
// A View is immutable after New and safe for concurrent readers; the
// parallel sweep builders in internal/angular share one View across
// GOMAXPROCS workers.
package cols

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"sectorpack/internal/model"
)

// View is the columnar instance core. Position p (0 ≤ p < Len) describes
// the p-th customer in ascending-angle order; ID[p] maps the position back
// to the customer's index in Instance.Customers. Angle ties keep ascending
// customer-index order (the sort is stable from index order), so the
// layout is a deterministic function of the instance.
type View struct {
	Theta  []float64 // ascending angles
	R      []float64 // radius per position
	Demand []int64   // demand per position
	Profit []int64   // profit per position
	ID     []int32   // customer index per position

	// Radial pre-filter index: byR lists positions in ascending-radius
	// order (ties by position), sortedR the radii in that order for
	// binary searching.
	byR     []int32
	sortedR []float64
}

// New builds the view: one stable radix sort by angle and one by radius
// per instance, each O(n), amortized over every antenna's sweep.
func New(in *model.Instance) *View {
	n := len(in.Customers)
	v := &View{
		Theta:   make([]float64, n),
		R:       make([]float64, n),
		Demand:  make([]int64, n),
		Profit:  make([]int64, n),
		ID:      make([]int32, n),
		byR:     make([]int32, n),
		sortedR: make([]float64, n),
	}
	keys := make([]uint64, n)
	tmp := make([]int32, n)
	for i := range in.Customers {
		keys[i] = SortKey(in.Customers[i].Theta)
	}
	Order(v.ID, tmp, keys)
	for p, id := range v.ID {
		c := &in.Customers[id]
		v.Theta[p] = c.Theta
		v.R[p] = c.R
		v.Demand[p] = c.Demand
		v.Profit[p] = c.Profit
	}
	for p, r := range v.R {
		keys[p] = SortKey(r)
	}
	Order(v.byR, tmp, keys)
	for k, p := range v.byR {
		v.sortedR[k] = v.R[p]
	}
	return v
}

// SortKey maps a float to an integer whose unsigned order is the float's
// order under <. Adding 0 turns −0 into +0 first, so the two zeros, which
// < does not tell apart, stay a tie. Keys are never NaN: Validate rejects
// NaN angles and radii.
func SortKey(f float64) uint64 {
	b := math.Float64bits(f + 0)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Order fills order with the indices 0..len(keys)−1 sorted stably by
// key. Sorting stably from index order yields the (key, index) order the
// layout contracts describe. tmp is scratch of the same length as keys.
func Order(order, tmp []int32, keys []uint64) {
	for i := range order {
		order[i] = int32(i)
	}
	SortByKey(order, tmp, keys, 64)
}

// SortByKey sorts order, a list of indices into keys, stably by
// keys[order[i]] ascending, where every key is below 2^width: a
// least-significant-digit radix sort, eleven bits per pass (one histogram
// pass for all of them), that skips each pass whose digit is the same in
// every key. Sorting by one key and then stably by another orders by the
// second key, ties by the first. tmp is scratch at least as long as order.
func SortByKey(order, tmp []int32, keys []uint64, width int) {
	if len(order) == 0 {
		return
	}
	radixByDigits[max(1, (width+digitBits-1)/digitBits)-1](order, tmp, keys)
}

// digitBits is the width of one SortByKey pass.
const digitBits = 11

// buckets is the number of values one digit takes.
const buckets = 1 << digitBits

// radixByDigits holds radixSort at each digit count a key width can need,
// so a call declares, and so zeroes, the histogram rows its keys use and
// no more: one row of 8 KB for keys of eleven bits, six for 64.
var radixByDigits = [...]func(order, tmp []int32, keys []uint64){
	radixSort[[1][buckets]int32],
	radixSort[[2][buckets]int32],
	radixSort[[3][buckets]int32],
	radixSort[[4][buckets]int32],
	radixSort[[5][buckets]int32],
	radixSort[[6][buckets]int32],
}

// histograms is the set of SortByKey's histogram shapes: one row of counts
// per digit.
type histograms interface {
	[1][buckets]int32 | [2][buckets]int32 | [3][buckets]int32 |
		[4][buckets]int32 | [5][buckets]int32 | [6][buckets]int32
}

// radixSort is SortByKey over len(H) digits, with non-empty order.
func radixSort[H histograms](order, tmp []int32, keys []uint64) {
	const mask = buckets - 1
	n := len(order)
	var counts H
	for _, i := range order {
		k := keys[i]
		for d := range len(counts) {
			counts[d][k>>(digitBits*d)&mask]++
		}
	}
	src, dst := order, tmp[:n]
	for d := range len(counts) {
		c := &counts[d]
		shift := digitBits * d
		if c[keys[order[0]]>>shift&mask] == int32(n) {
			continue
		}
		var sum int32
		for b, k := range c {
			c[b], sum = sum, sum+k
		}
		for _, i := range src {
			b := keys[i] >> shift & mask
			dst[c[b]] = i
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &order[0] {
		copy(order, src)
	}
}

// sortPositions sorts p, whose values lie in [0, n), ascending with an LSD
// radix sort on the values themselves. The passes are as few as digits of
// at most eleven bits allow, and the digits as narrow as that many passes
// allow: two passes of nine bits at n = 100k. tmp is scratch as long as p.
func sortPositions(p, tmp []int32, n int) {
	width := bits.Len(uint(n - 1))
	passes := max(1, (width+10)/11)
	digit := (width + passes - 1) / passes
	mask := int32(1)<<digit - 1
	var c [1 << 11]int32
	src, dst := p, tmp[:len(p)]
	for shift := 0; shift < width; shift += digit {
		clear(c[:mask+1])
		for _, q := range src {
			c[q>>shift&mask]++
		}
		var sum int32
		for b, k := range c[:mask+1] {
			c[b], sum = sum, sum+k
		}
		for _, q := range src {
			b := q >> shift & mask
			dst[c[b]] = q
			c[b]++
		}
		src, dst = dst, src
	}
	if len(p) > 0 && &src[0] != &p[0] {
		copy(p, src)
	}
}

// Len returns the number of customers in the view.
func (v *View) Len() int { return len(v.Theta) }

// Rebase builds the view of next — the instance produced by applying a
// delta to old's instance — with linear merges that reuse old's two sort
// orders for the survivors and a radix sort of only the k added customers,
// instead of re-sorting all n customers.
// removed lists the pre-delta ids the delta removed (any order), added how
// many customers it appended. The result is identical to New(next); a
// differential test enforces this bit for bit.
//
// The construction leans on model.ApplyDelta's layout contract:
//
//   - survivors keep their relative order and are renumbered down by the
//     count of removed ids below them, so filtering old's angular order and
//     remapping ids yields the survivors already sorted by (theta, new id);
//   - added customers occupy ids nSurv..n-1, above every survivor id, so
//     sorting just the k additions and merging (survivor first on theta
//     ties) reproduces New's (theta, id) order;
//   - the radial order is rebuilt the same way: survivors filtered from
//     old's byR stay sorted by (radius, position) because the merge
//     preserves their relative positions, and the k additions are sorted
//     and merged in.
//
// Every column value is gathered from next, so demand/profit re-pricing
// needs no special handling. Old is not modified.
func Rebase(old *View, next *model.Instance, removed []int, added int) *View {
	n := len(next.Customers)
	nSurv := n - added
	oldN := old.Len()

	// shiftOf[id] counts removed ids below id: survivor oldID → oldID−shift.
	gone := make([]bool, oldN)
	for _, id := range removed {
		gone[id] = true
	}
	shiftOf := make([]int32, oldN)
	cum := int32(0)
	for id := 0; id < oldN; id++ {
		shiftOf[id] = cum
		if gone[id] {
			cum++
		}
	}

	v := &View{
		Theta:   make([]float64, n),
		R:       make([]float64, n),
		Demand:  make([]int64, n),
		Profit:  make([]int64, n),
		ID:      make([]int32, n),
		byR:     make([]int32, n),
		sortedR: make([]float64, n),
	}

	// Angular order: survivors (filtered from old, ids remapped) merged
	// with the sorted additions; on theta ties the survivor goes first,
	// which is (theta, id) order since every added id exceeds every
	// survivor id.
	survIDs := make([]int32, 0, nSurv)
	for _, id := range old.ID {
		if gone[id] {
			continue
		}
		survIDs = append(survIDs, id-shiftOf[id])
	}
	addIDs := make([]int32, added)
	keys := make([]uint64, added)
	tmp := make([]int32, added)
	for t := range keys {
		keys[t] = SortKey(next.Customers[nSurv+t].Theta)
	}
	Order(addIDs, tmp, keys)
	for t := range addIDs {
		addIDs[t] += int32(nSurv)
	}
	i, j := 0, 0
	for p := 0; p < n; p++ {
		switch {
		case i == len(survIDs):
			v.ID[p] = addIDs[j]
			j++
		case j == len(addIDs) || next.Customers[survIDs[i]].Theta <= next.Customers[addIDs[j]].Theta:
			v.ID[p] = survIDs[i]
			i++
		default:
			v.ID[p] = addIDs[j]
			j++
		}
	}
	pos := make([]int32, n) // inverse of v.ID: new id → position
	for p, id := range v.ID {
		c := &next.Customers[id]
		v.Theta[p] = c.Theta
		v.R[p] = c.R
		v.Demand[p] = c.Demand
		v.Profit[p] = c.Profit
		pos[id] = int32(p)
	}

	// Radial order: same filter-and-merge on (radius, position). Survivor
	// radii are untouched by any delta, and the merge above preserves
	// survivors' relative positions, so mapping old.byR through pos keeps
	// it sorted.
	survR := make([]int32, 0, nSurv)
	for _, op := range old.byR {
		id := old.ID[op]
		if gone[id] {
			continue
		}
		survR = append(survR, pos[id-shiftOf[id]])
	}
	// addIDs lists the additions in position order, so sorting them
	// stably by radius breaks radius ties by position.
	addR := make([]int32, added)
	for t, id := range addIDs {
		keys[t] = SortKey(v.R[pos[id]])
	}
	Order(addR, tmp, keys)
	for t, k := range addR {
		addR[t] = pos[addIDs[k]]
	}
	i, j = 0, 0
	for p := 0; p < n; p++ {
		switch {
		case i == len(survR):
			v.byR[p] = addR[j]
			j++
		case j == len(addR) || radposLess(v.R[survR[i]], survR[i], v.R[addR[j]], addR[j]):
			v.byR[p] = survR[i]
			i++
		default:
			v.byR[p] = addR[j]
			j++
		}
	}
	for p, q := range v.byR {
		v.sortedR[p] = v.R[q]
	}
	return v
}

// radposLess is the (radius, position) lexicographic order of the byR
// index, written with < only: equal radii fall through both comparisons to
// the position tie-break, so no exact float equality is needed.
func radposLess(ra float64, pa int32, rb float64, pb int32) bool {
	if ra < rb {
		return true
	}
	if rb < ra {
		return false
	}
	return pa < pb
}

// RadialRun returns the half-open run [lo, hi) of the radius-sorted index
// holding exactly the customers the antenna can reach. Exposed for the
// boundary tests and for callers that only need the eligible count.
func (v *View) RadialRun(a model.Antenna) (lo, hi int) {
	loR, hiR := a.RadialBounds()
	n := len(v.sortedR)
	lo = sort.Search(n, func(i int) bool { return v.sortedR[i] >= loR })
	hi = sort.Search(n, func(i int) bool { return v.sortedR[i] > hiR })
	return lo, hi
}

// AppendEligible appends to out the positions (ascending) of every customer
// the antenna can radially reach, and returns the extended slice. Two paths
// produce the identical set — eligibility is the pure radius predicate
// model.Antenna.InRange, which both express through RadialBounds:
//
//   - pre-filter: when the eligible count k is small relative to n, the
//     positions are read off the radius-sorted run and radix-sorted back
//     into angular order (sortPositions), O(log n + k) with two passes up
//     to n = 2^22; the sort's scratch is out's spare capacity, so a
//     caller that reuses out allocates nothing;
//   - scan: otherwise a single sequential pass over the radius column,
//     O(n) with no sort (positions come out already ordered).
//
// The path choice therefore never affects results, only cost.
func (v *View) AppendEligible(a model.Antenna, out []int32) []int32 {
	n := len(v.R)
	if n == 0 {
		return out
	}
	rlo, rhi := v.RadialRun(a)
	k := rhi - rlo
	if k == 0 {
		return out
	}
	if prefilterWins(k, n) {
		base := len(out)
		out = append(slices.Grow(out, 2*k), v.byR[rlo:rhi]...)
		sortPositions(out[base:], out[base+k:base+2*k], n)
		return out
	}
	loR, hiR := a.RadialBounds()
	for p := 0; p < n; p++ {
		if r := v.R[p]; loR <= r && r <= hiR {
			out = append(out, int32(p))
		}
	}
	return out
}

// InRadialRange reports whether radius r lies in the antenna's closed
// radial eligibility interval — the per-customer form of the pre-filter
// predicate RadialRun binary-searches. For any customer c with a non-NaN
// radius, InRadialRange(a, c.R) == a.InRange(c) (RadialBounds' documented
// contract). The delta-session invalidation logic and the online admission
// path use this as the single source of truth for "can this antenna reach
// this radius".
func InRadialRange(a model.Antenna, r float64) bool {
	lo, hi := a.RadialBounds()
	return lo <= r && r <= hi
}

// TouchesRadially reports whether any of the radii (which must be sorted
// ascending) falls inside the antenna's radial eligibility interval. This
// is the pre-filter applied to a delta's touched radii instead of an
// instance's customers: a warm per-antenna sweep survives a delta iff
// TouchesRadially(antenna, delta radii) is false, because sweep membership
// is exactly the radial predicate above.
func TouchesRadially(a model.Antenna, sortedR []float64) bool {
	lo, hi := a.RadialBounds()
	i := sort.SearchFloat64s(sortedR, lo)
	return i < len(sortedR) && sortedR[i] <= hi
}

// prefilterWins decides whether the binary-search path is cheaper than the
// full scan (n work), with a bias toward the scan near the break-even
// point since its sequential pass is friendlier to the cache. The
// pre-filter's cost is modelled as k log₂ k, the comparison sort it used
// before sortPositions; its radix sort costs less, so the model leans
// toward the scan.
func prefilterWins(k, n int) bool {
	bits := 0
	for v := k; v > 0; v >>= 1 {
		bits++
	}
	return k*bits*2 < n
}
