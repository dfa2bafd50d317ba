package angular

import (
	"math"

	"sectorpack/internal/cols"
	"sectorpack/internal/model"
)

// Rebase retargets the engine at next — the instance produced by applying
// delta d to the engine's current instance (model.ApplyDelta) — carrying
// every built per-antenna sweep over to next without re-sorting the
// instance. It returns kept[j] == true iff antenna j's warm sweep (and
// candidate list) survived untouched; a sweep the delta touched is rebuilt
// here by a merge (kept[j] == false, as for a dropped sweep), and a
// never-built sweep builds lazily against next on first use. Rebase is the
// incremental core of a delta session: on localized churn most sweeps
// survive and the rest merge in O(members + k log k), so a re-solve skips
// the dominant from-scratch cost of sorting n customers.
//
// Soundness. A sweep's membership is the pure radial predicate
// cols.InRadialRange (sweeps gather exactly the customers whose radius lies
// in the antenna's RadialBounds interval), and its contents are a
// deterministic function of (member geometry, member demand/profit, member
// customer-index order): members in (theta, customer index) order, then
// the density order over them. The delta's "touch radii" are the radii of
// every customer it removes or re-prices (read from the OLD instance) and
// every customer it adds. model.ApplyDelta renumbers survivors
// order-preservingly (each id drops by its count of removed predecessors)
// and appends the additions above every survivor id. Hence:
//
//   - if no touch radius lies in antenna j's radial interval
//     (cols.TouchesRadially), no removed, re-priced, or added customer is a
//     member of sweep j: only its member ids are stale, and shifting them
//     makes the sweep bit-identical to a fresh build;
//   - otherwise the fresh sweep is the old members minus the removed ones
//     (ids shifted, demand/profit read from next), merged in theta order
//     with next's in-range additions sorted by (theta, id) — survivors
//     first on theta ties, since every added id exceeds every survivor id —
//     with the density order re-sorted (mergeSweep);
//   - candidate angles derive from sweep thetas only, so they survive an
//     untouched sweep and rebuild lazily from a merged one.
//
// The rebase differential tests enforce bit identity with a fresh
// NewEngine(next) for kept, merged, and lazily built sweeps alike.
//
// Antenna capacity changes never invalidate a sweep: capacity is read from
// the engine's instance at solve time, not stored in sweep state. Antenna
// geometry changes are outside the delta vocabulary; Rebase still compares
// geometry defensively and drops the sweep of any antenna whose shape
// differs. If the antenna count itself differs — next is not a delta of the
// current instance — every sweep is dropped.
func (e *Engine) Rebase(next *model.Instance, d model.Delta) (kept []bool) {
	old := e.in
	m := len(next.Antennas)
	kept = make([]bool, m)
	e.in = next
	e.view = nil // rebuilt from next only if a never-built sweep needs it
	if len(old.Antennas) != m {
		e.sweeps = make([]*Sweep, m)
		e.cands = make([][]float64, m)
		return kept
	}
	radii := make([]float64, 0, len(d.SetDemand)+len(d.Remove)+len(d.Add))
	for _, ch := range d.SetDemand {
		radii = append(radii, old.Customers[ch.Customer].R)
	}
	for _, id := range d.Remove {
		radii = append(radii, old.Customers[id].R)
	}
	for _, c := range d.Add {
		radii = append(radii, c.R)
	}
	touch := make([]float64, len(radii))
	for t, i := range floatOrder(radii) {
		touch[t] = radii[i]
	}

	// shift[id] is the count of removed ids below old id, or −1 if id
	// itself was removed; nil when nothing was removed.
	var shift []int32
	if len(d.Remove) > 0 {
		shift = make([]int32, len(old.Customers))
		for _, id := range d.Remove {
			shift[id] = -1
		}
		cum := int32(0)
		for id, sh := range shift {
			if sh < 0 {
				cum++
			} else {
				shift[id] = cum
			}
		}
	}
	// The additions' new ids in (theta, id) order, shared by every merge.
	base := len(next.Customers) - len(d.Add)
	thetas := make([]float64, len(d.Add))
	for t := range thetas {
		thetas[t] = next.Customers[base+t].Theta
	}
	added := floatOrder(thetas)
	for t := range added {
		added[t] += int32(base)
	}
	sc := new(buildScratch)

	for j := 0; j < m; j++ {
		s := e.sweeps[j]
		if s == nil {
			continue // never built; nothing to keep
		}
		oa, na := old.Antennas[j], next.Antennas[j]
		// Deliberately bit-level, not tolerance-based: ANY geometry change,
		// however small, changes what a fresh sweep would contain, and the
		// contract here is bit-identity with a fresh build.
		if !bitsEq(oa.Rho, na.Rho) || !bitsEq(oa.Range, na.Range) || !bitsEq(oa.MinRange, na.MinRange) {
			e.sweeps[j], e.cands[j] = nil, nil
			continue
		}
		if cols.TouchesRadially(na, touch) {
			e.sweeps[j], e.cands[j] = mergeSweep(s, next, na, shift, added, sc), nil
			continue
		}
		if shift != nil {
			for t, id := range s.ids {
				s.ids[t] = id - shift[id] // id was not removed: its radius would touch
			}
		}
		kept[j] = true
	}
	return kept
}

// mergeSweep builds antenna a's sweep over next from its pre-delta sweep
// s: the surviving members (ids shifted, demand and profit read from next)
// merged in theta order with the in-range additions (new ids in (theta, id)
// order), survivors first on theta ties, then the density order merged
// (mergeDensity). See Rebase for why this equals a fresh build.
func mergeSweep(s *Sweep, next *model.Instance, a model.Antenna, shift []int32, added []int32, sc *buildScratch) *Sweep {
	k := len(s.ids) + len(added)
	ns := &Sweep{
		rho:     s.rho,
		thetas:  make([]float64, 0, k),
		ids:     make([]int32, 0, k),
		weights: make([]int64, 0, k),
		profits: make([]int64, 0, k),
		density: make([]int32, 0, k),
	}
	push := func(theta float64, id int32) {
		c := &next.Customers[id]
		ns.thetas = append(ns.thetas, theta)
		ns.ids = append(ns.ids, id)
		ns.weights = append(ns.weights, c.Demand)
		ns.profits = append(ns.profits, c.Profit)
	}
	ai := 0
	lo, hi := a.RadialBounds() // cols.InRadialRange, with the bounds worked out once
	// pushAdds appends the in-range additions with theta below limit.
	pushAdds := func(limit float64) {
		for ; ai < len(added); ai++ {
			c := &next.Customers[added[ai]]
			if !(c.Theta < limit) {
				return
			}
			if lo <= c.R && c.R <= hi {
				push(c.Theta, added[ai])
			}
		}
	}
	newPos := make([]int32, len(s.ids)) // old position → position in ns, −1 if removed
	for t, id := range s.ids {
		if shift != nil {
			if shift[id] < 0 {
				newPos[t] = -1
				continue
			}
			id -= shift[id]
		}
		pushAdds(s.thetas[t])
		newPos[t] = int32(len(ns.ids))
		push(s.thetas[t], id)
	}
	pushAdds(math.Inf(1))
	ns.mergeDensity(s, newPos, sc)
	return ns
}

// floatOrder returns the indices of x in ascending order of x, ties by
// index: a radix sort of the order-preserving integer images of x.
func floatOrder(x []float64) []int32 {
	keys := make([]uint64, len(x))
	for i, f := range x {
		keys[i] = cols.SortKey(f)
	}
	order := make([]int32, len(x))
	cols.Order(order, make([]int32, len(x)), keys)
	return order
}

// mergeDensity fills s.density from the pre-delta sweep old instead of
// sorting all of it. A survivor whose weight and profit are unchanged
// keeps its order relative to the other such survivors: densityCmp reads
// only weight, profit and position, and mergeSweep keeps the survivors'
// relative positions. So those survivors, read in old's density order, are
// already sorted; only the additions and the re-priced survivors are
// sorted (dantzigOrder), and the two runs are merged. The result equals
// sortDensity's.
func (s *Sweep) mergeDensity(old *Sweep, newPos []int32, sc *buildScratch) {
	k := len(s.ids)
	kept := make([]bool, k)
	same := make([]int32, 0, k)
	for _, t := range old.density {
		if p := newPos[t]; p >= 0 && s.weights[p] == old.weights[t] && s.profits[p] == old.profits[t] {
			same = append(same, p)
			kept[p] = true
		}
	}
	fresh := make([]int32, 0, k-len(same))
	for p, ok := range kept {
		if !ok {
			fresh = append(fresh, int32(p))
		}
	}
	s.dantzigOrder(fresh, sc)
	i, j := 0, 0
	for i < len(same) || j < len(fresh) {
		if j == len(fresh) || (i < len(same) && s.densityCmp(same[i], fresh[j]) < 0) {
			s.density = append(s.density, same[i])
			i++
		} else {
			s.density = append(s.density, fresh[j])
			j++
		}
	}
}

// bitsEq is bit-level float equality (NaN == NaN, -0 != +0), the explicit
// form of the identity comparison Rebase's sweep-survival proof needs.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
