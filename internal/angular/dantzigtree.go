package angular

import "math/bits"

// dantzigTree is BestWindow's sliding Dantzig bound. It is a Fenwick tree
// indexed by a sweep's density rank that holds the (weight, profit) sums of
// the active members of one window, a circular run of sweep positions. The
// window slides forward as forEachRange advances, so each position enters
// at most twice and leaves at most once per call: a BestWindow call costs
// O(k log k) for a sweep of k positions, and each candidate's bound
// O(log k) on top.
//
// The bound is the walk of the density order that takes whole members while
// they fit and the split member's floorFrac share: ⌊LP⌋ over the window's
// active members. Demands are validated positive, so the longest rank
// prefix whose weight fits ends right before the split member, and one
// binary descent finds both.
type dantzigTree struct {
	s      *Sweep
	rank   []int32   // 1-based density rank of each sweep position
	node   []fenNode // node[r] sums the members of ranks (r − r&−r, r]
	top    int       // highest power of two ≤ len(rank)
	lo, hi int       // the window: positions [lo, hi), taken mod len(rank)
}

// fenNode is one Fenwick node. Its weight sum is 128 bits wide: each
// demand is below 2^63 and a sweep has fewer than 2^31 positions, so no
// window's sum overflows it, and the comparison with the remaining
// capacity stays exact for any valid input. The profit sum wraps exactly
// as the walk's running sum would.
type fenNode struct {
	wLo, wHi uint64
	p        int64
}

// reset empties the tree and points it at sweep s.
func (t *dantzigTree) reset(s *Sweep) {
	k := s.Len()
	t.s, t.lo, t.hi = s, 0, 0
	if cap(t.node) < k+1 {
		t.rank = make([]int32, k)
		t.node = make([]fenNode, k+1)
	}
	t.rank = t.rank[:k]
	t.node = t.node[:k+1]
	clear(t.node)
	for r, p := range s.density {
		t.rank[p] = int32(r + 1)
	}
	t.top = 0
	if k > 0 {
		t.top = 1 << (bits.Len(uint(k)) - 1)
	}
}

// slide moves the window to positions [start, end). Neither end may move
// backwards, and end − start may not exceed the sweep length. The active
// positions that leave the window are removed and those that enter it are
// added; inactive ones never enter the tree.
func (t *dantzigTree) slide(start, end int, active []bool) {
	k := len(t.rank)
	for ; t.lo < start; t.lo++ {
		if t.lo < t.hi {
			t.update(t.lo%k, active, false)
		}
	}
	t.hi = max(t.hi, start)
	for ; t.hi < end; t.hi++ {
		t.update(t.hi%k, active, true)
	}
}

// update adds position p to the tree (or removes it) if its customer is
// active.
func (t *dantzigTree) update(p int, active []bool, add bool) {
	s := t.s
	if active != nil && !active[s.ids[p]] {
		return
	}
	w, pr := uint64(s.weights[p]), s.profits[p]
	for r := int(t.rank[p]); r < len(t.node); r += r & -r {
		nd := &t.node[r]
		var c uint64
		if add {
			nd.wLo, c = bits.Add64(nd.wLo, w, 0)
			nd.wHi += c
			nd.p += pr
		} else {
			nd.wLo, c = bits.Sub64(nd.wLo, w, 0)
			nd.wHi -= c
			nd.p -= pr
		}
	}
}

// bound returns the window's Dantzig bound ⌊LP⌋ at the given capacity. The
// descent takes the longest rank prefix whose weight fits; if members
// remain and room is left, the member of the next rank is the split
// member, since only a member's positive weight can stop the prefix there.
func (t *dantzigTree) bound(capacity int64) int64 {
	rem := uint64(capacity)
	var bound int64
	pos := 0
	for step := t.top; step > 0; step >>= 1 {
		if q := pos + step; q < len(t.node) {
			if nd := &t.node[q]; nd.wHi == 0 && nd.wLo <= rem {
				pos = q
				rem -= nd.wLo
				bound += nd.p
			}
		}
	}
	if pos == len(t.rank) || rem == 0 {
		return bound
	}
	p := t.s.density[pos]
	return bound + floorFrac(t.s.profits[p], int64(rem), t.s.weights[p])
}
