package angular

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// unprunedBestWindow is the reference implementation of BestWindow: it
// materializes every candidate window via windowSets and solves every
// knapsack, with no bound pruning, no parallelism, and no scratch reuse —
// exactly the historical evaluation the Engine replaced. The metamorphic
// tests below demand bit-identical results from the pruned path.
func unprunedBestWindow(in *model.Instance, antenna int, active []bool, opt knapsack.Options) (Window, error) {
	alphas, members := windowSets(NewEngine(in).Sweep(antenna), active)
	if len(alphas) == 0 {
		return Window{Exact: true}, nil
	}
	capacity := in.Antennas[antenna].Capacity
	acc := Window{Profit: -1, Exact: true}
	for k, alpha := range alphas {
		ids := members[k]
		if len(ids) == 0 {
			acc = better(acc, Window{Alpha: alpha, Exact: true})
			continue
		}
		items := make([]knapsack.Item, len(ids))
		for t, i := range ids {
			items[t] = knapsack.Item{Weight: in.Customers[i].Demand, Profit: in.Customers[i].Profit}
		}
		res, exact, err := knapsack.Solve(items, capacity, opt)
		if err != nil {
			return Window{}, err
		}
		w := Window{Alpha: alpha, Profit: res.Profit, Exact: exact}
		for t, take := range res.Take {
			if take {
				w.Customers = append(w.Customers, ids[t])
			}
		}
		acc = better(acc, w)
	}
	return clampEmpty(acc), nil
}

func windowsEqual(a, b Window) bool {
	// The determinism contract is bit identity, so Alpha compares by bits.
	if math.Float64bits(a.Alpha) != math.Float64bits(b.Alpha) ||
		a.Profit != b.Profit || a.Exact != b.Exact || len(a.Customers) != len(b.Customers) {
		return false
	}
	for k := range a.Customers {
		if a.Customers[k] != b.Customers[k] {
			return false
		}
	}
	return true
}

// checkPruningInvariance compares every antenna's pruned BestWindow with
// the unpruned reference for both inner solvers, at 1 worker and at 4, and
// twice per setting so scratch reuse is covered.
func checkPruningInvariance(t *testing.T, tag string, in *model.Instance, active []bool) {
	t.Helper()
	defer SetMaxWorkers(SetMaxWorkers(0))
	eng := NewEngine(in)
	for j := range in.Antennas {
		for _, opt := range []knapsack.Options{{}, {Eps: 0.3}} {
			want, err := unprunedBestWindow(in, j, active, opt)
			if err != nil {
				t.Fatalf("%s antenna %d reference: %v", tag, j, err)
			}
			for _, workers := range []int{1, 4} {
				SetMaxWorkers(workers)
				for rep := 0; rep < 2; rep++ {
					got, err := eng.BestWindow(context.Background(), j, active, opt)
					if err != nil {
						t.Fatalf("%s antenna %d engine: %v", tag, j, err)
					}
					if !windowsEqual(got, want) {
						t.Fatalf("%s antenna %d opt=%+v workers=%d rep=%d: pruned %+v != unpruned %+v",
							tag, j, opt, workers, rep, got, want)
					}
				}
			}
		}
	}
}

// TestBestWindowPruningInvariance is the metamorphic guarantee of the
// Dantzig-bound pruning: across generator families, problem variants,
// random active masks, both the exact and the FPTAS inner solvers, and 1
// and 4 workers, the pruned Engine evaluation must return exactly the same
// (Alpha, Profit, Customers, Exact) as the exhaustive reference. The
// tie-heavy family gives every customer the same demand and profit, so
// many windows share the optimum and only the first-index tie-break picks
// the winner, and odd capacities open integrality gaps, so a candidate
// can tie the incumbent's profit at a lower index; its multi-antenna
// instances have enough candidates per antenna for the parallel fan-out.
func TestBestWindowPruningInvariance(t *testing.T) {
	variants := []model.Variant{model.Sectors, model.Angles, model.DisjointAngles}
	rng := rand.New(rand.NewSource(77))
	mask := func(in *model.Instance, on bool) []bool {
		if !on {
			return nil
		}
		active := make([]bool, in.N())
		for i := range active {
			active[i] = rng.Intn(4) != 0
		}
		return active
	}
	cases := 0
	for _, fam := range gen.Families() {
		for seed := int64(1); seed <= 6; seed++ {
			for _, n := range []int{12, 31} {
				in := gen.MustGenerate(gen.Config{
					Family:  fam,
					Seed:    seed,
					N:       n,
					M:       1,
					Variant: variants[cases%len(variants)],
				})
				checkPruningInvariance(t, fmt.Sprintf("%s/%d/n%d", fam, seed, n), in, mask(in, cases%2 == 1))
				cases++
			}
		}
	}
	if cases < 50 {
		t.Fatalf("only %d seeded instances, want >= 50", cases)
	}
	for _, fam := range gen.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			in := gen.MustGenerate(gen.Config{Family: fam, Seed: seed, N: 60, M: 3, Variant: variants[int(seed)%len(variants)]})
			for i := range in.Customers {
				in.Customers[i].Demand, in.Customers[i].Profit = 2, 3
			}
			tag := fmt.Sprintf("ties/%s/%d", fam, seed)
			checkPruningInvariance(t, tag, in, mask(in, seed == 3))
			// Odd capacities leave half a customer's room: a window of
			// more than c/2 members has bound ⌊1.5c⌋ but optimum
			// 3·⌊c/2⌋, tying the windows of exactly ⌊c/2⌋ members, which
			// the first-index rule must then break.
			for c := int64(5); c <= 15; c += 2 {
				for j := range in.Antennas {
					in.Antennas[j].Capacity = c
				}
				checkPruningInvariance(t, fmt.Sprintf("%s/c%d", tag, c), in, nil)
			}
		}
	}
}

// TestBestWindowAtMatchesScanReference checks the explicit-angle evaluation
// (the constrained solvers' entry point) against a direct scanCovered/
// scanWindowItems scan, including non-customer angles and empty windows, which
// the constrained fold must skip.
func TestBestWindowAtMatchesScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(rng, 1+rng.Intn(25), 1, model.Sectors)
		alphas := append([]float64{}, scanCandidates(in, 0)...)
		for k := 0; k < 4; k++ {
			alphas = append(alphas, rng.Float64()*6.283)
		}
		var active []bool
		if trial%2 == 1 {
			active = make([]bool, in.N())
			for i := range active {
				active[i] = rng.Intn(3) != 0
			}
		}
		capacity := in.Antennas[0].Capacity
		want := Window{Profit: -1, Exact: true}
		for _, alpha := range alphas {
			items, ids := scanWindowItems(in, 0, alpha, active)
			if len(ids) == 0 {
				continue
			}
			res, exact, err := knapsack.Solve(items, capacity, knapsack.Options{})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			w := Window{Alpha: alpha, Profit: res.Profit, Exact: exact}
			for k, take := range res.Take {
				if take {
					w.Customers = append(w.Customers, ids[k])
				}
			}
			want = better(want, w)
		}
		want = clampEmpty(want)

		got, err := NewEngine(in).BestWindowAt(context.Background(), 0, alphas, active, knapsack.Options{})
		if err != nil {
			t.Fatalf("BestWindowAt: %v", err)
		}
		if !windowsEqual(got, want) {
			t.Fatalf("trial %d: BestWindowAt %+v != scan %+v", trial, got, want)
		}
	}

	// An empty window at a lower index than a non-empty zero-profit one:
	// both bounds are 0, and the empty window must not become the tie
	// incumbent, or it would prune the only window the fold keeps.
	in := instWith(
		[]model.Customer{{Theta: 2.0, R: 1, Demand: 3}},
		[]model.Antenna{{Rho: 0.5, Range: 10, Capacity: 0}},
		model.Sectors,
	)
	got, err := NewEngine(in).BestWindowAt(context.Background(), 0, []float64{0.5, 1.8}, nil, knapsack.Options{})
	if err != nil {
		t.Fatalf("BestWindowAt: %v", err)
	}
	if want := (Window{Alpha: 1.8, Exact: true}); !windowsEqual(got, want) {
		t.Fatalf("empty-before-zero-profit: BestWindowAt %+v, want %+v", got, want)
	}
}

// floorLP is the oracle of the Dantzig bound: the fractional knapsack
// optimum computed exactly in rationals (items by density descending,
// zero-weight first, the first item that does not fit taken in part),
// rounded down.
func floorLP(items []knapsack.Item, capacity int64) int64 {
	sorted := slices.Clone(items)
	slices.SortFunc(sorted, func(a, b knapsack.Item) int {
		if a.Weight == 0 || b.Weight == 0 {
			return cmp.Compare(a.Weight, b.Weight) // zero weight first
		}
		return new(big.Rat).SetFrac64(b.Profit, b.Weight).Cmp(new(big.Rat).SetFrac64(a.Profit, a.Weight))
	})
	lp := new(big.Rat)
	rem := capacity
	for _, it := range sorted {
		if it.Weight <= rem {
			lp.Add(lp, new(big.Rat).SetInt64(it.Profit))
			rem -= it.Weight
			continue
		}
		lp.Add(lp, new(big.Rat).SetFrac64(it.Profit*rem, it.Weight))
		break
	}
	return new(big.Int).Quo(lp.Num(), lp.Denom()).Int64()
}

// dantzigRange is the reference of BestWindow's sliding bound: the Dantzig
// bound ⌊LP⌋ of the window given as a circular position range, over its
// active members, from a walk of the sweep's whole density order that
// skips non-members, in integer arithmetic (floorFrac).
func (s *Sweep) dantzigRange(start, count int, active []bool, capacity int64) int64 {
	n := len(s.ids)
	rem := capacity
	var bound int64
	for _, p32 := range s.density {
		p := int(p32)
		rel := p - start
		if rel < 0 {
			rel += n
		}
		if rel >= count {
			continue
		}
		if active != nil && !active[s.ids[p]] {
			continue
		}
		w := s.weights[p]
		if w <= rem {
			bound += s.profits[p]
			rem -= w
			if rem == 0 {
				break
			}
		} else {
			bound += floorFrac(s.profits[p], rem, w)
			break
		}
	}
	return bound
}

// TestDantzigBoundDominatesOptimum property-checks pruning soundness at its
// root. Every bound BestWindow streams from its sliding tree must equal the
// density walk over the same window (dantzigRange) and the explicit-set
// bound, be at least the window's true 0/1 optimum, and be exactly the
// floor of the window's LP optimum — the tightest bound integer profits
// allow. The inputs cover random small instances (n=1 included), every gen
// family, the tie-heavy family of TestBestWindowPruningInvariance, random
// active masks, windows across the 2π seam, capacity 0 and capacity at
// least every window's weight, several antennas sharing one engine's tree,
// and demands near 2^62 whose window sums pass 2^64.
func TestDantzigBoundDominatesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	randMask := func(in *model.Instance) []bool {
		active := make([]bool, in.N())
		for i := range active {
			active[i] = rng.Intn(3) != 0
		}
		return active
	}
	seam := 0
	check := func(tag string, in *model.Instance, active []bool) {
		t.Helper()
		eng := NewEngine(in)
		for j := range in.Antennas {
			if _, err := eng.BestWindow(context.Background(), j, active, knapsack.Options{}); err != nil {
				t.Fatalf("%s antenna %d: %v", tag, j, err)
			}
			s := eng.Sweep(j)
			capacity := in.Antennas[j].Capacity
			n := s.Len()
			k := 0
			s.forEachRange(func(start, count int, alpha float64) bool {
				if k >= len(eng.wins) {
					t.Fatalf("%s antenna %d: BestWindow streamed %d windows, the sweep has more", tag, j, len(eng.wins))
				}
				c := eng.wins[k]
				k++
				if int(c.start) != start || int(c.count) != count {
					t.Fatalf("%s antenna %d window %d: streamed range (%d,%d), sweep range (%d,%d)", tag, j, k-1, c.start, c.count, start, count)
				}
				if start+count > n {
					seam++
				}
				walk := s.dantzigRange(start, count, active, capacity)
				if c.bound != walk {
					t.Fatalf("%s antenna %d window at %v: tree bound %d != walk %d", tag, j, alpha, c.bound, walk)
				}
				var items []knapsack.Item
				var set []int32
				for q := start; q < start+count; q++ {
					p := q % n
					if i := s.ids[p]; active == nil || active[i] {
						items = append(items, knapsack.Item{Weight: in.Customers[i].Demand, Profit: in.Customers[i].Profit})
						set = append(set, int32(p))
					}
				}
				if setBound := s.dantzigSet(set, active, capacity); setBound != walk {
					t.Fatalf("%s antenna %d window at %v: dantzigSet %d != walk %d", tag, j, alpha, setBound, walk)
				}
				opt, err := knapsackExact(items, capacity)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if walk < opt {
					t.Fatalf("%s antenna %d window at %v: bound %d below optimum %d", tag, j, alpha, walk, opt)
				}
				if lp := floorLP(items, capacity); walk != lp {
					t.Fatalf("%s antenna %d window at %v: bound %d != floor of the LP optimum %d", tag, j, alpha, walk, lp)
				}
				return true
			})
			if k != len(eng.wins) {
				t.Fatalf("%s antenna %d: BestWindow streamed %d windows, the sweep has %d", tag, j, len(eng.wins), k)
			}
		}
	}
	// checkCapacities runs check at the instance's own capacities, at 0, and
	// at its total demand, which no window's weight exceeds.
	checkCapacities := func(tag string, in *model.Instance, active []bool) {
		t.Helper()
		check(tag, in, active)
		own := make([]int64, in.M())
		for j := range in.Antennas {
			own[j] = in.Antennas[j].Capacity
		}
		for _, c := range []int64{0, in.TotalDemand()} {
			for j := range in.Antennas {
				in.Antennas[j].Capacity = c
			}
			check(fmt.Sprintf("%s/c%d", tag, c), in, active)
		}
		for j := range in.Antennas {
			in.Antennas[j].Capacity = own[j]
		}
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(14)
		if trial < 4 {
			n = 1
		}
		in := randInstance(rng, n, 1+trial%2, model.Sectors)
		var active []bool
		if trial%2 == 1 {
			active = randMask(in)
		}
		checkCapacities(fmt.Sprintf("random/%d", trial), in, active)
	}
	for _, fam := range gen.Families() {
		for seed := int64(1); seed <= 2; seed++ {
			in := gen.MustGenerate(gen.Config{Family: fam, Seed: seed, N: 24, M: 3})
			checkCapacities(fmt.Sprintf("%s/%d", fam, seed), in, nil)
			checkCapacities(fmt.Sprintf("%s/%d/masked", fam, seed), in, randMask(in))
			for i := range in.Customers {
				in.Customers[i].Demand, in.Customers[i].Profit = 2, 3
			}
			for c := int64(5); c <= 15; c += 2 {
				for j := range in.Antennas {
					in.Antennas[j].Capacity = c
				}
				check(fmt.Sprintf("ties/%s/%d/c%d", fam, seed, c), in, randMask(in))
			}
		}
	}
	// Customers on both sides of the seam: windows wrap past 2π, and the
	// last one lies within Eps of the one at 0, so the sweep skips start 0
	// and the tree's first window starts at position 1.
	seamCustomers := make([]model.Customer, 11)
	for i := range seamCustomers {
		seamCustomers[i] = model.Customer{Theta: geom.NormAngle(float64(i-5) * 0.05), R: 1, Demand: 1 + int64(i%3), Profit: int64(7 - i%4)}
	}
	seamCustomers[10].Theta = geom.TwoPi - geom.Eps/2
	in := instWith(seamCustomers, []model.Antenna{{Rho: 0.3, Range: 10, Capacity: 4}}, model.Sectors)
	checkCapacities("seam", in, nil)
	checkCapacities("seam/masked", in, randMask(in))
	if seam == 0 {
		t.Fatal("no window crossed the 2π seam")
	}
	// Two of every three demands near 2^62: a window holds enough of them
	// for its weight to pass 2^64, while the small ones still fit. The
	// profit·weight cross products of the density order pass 2^63 here,
	// so this pins the 128-bit comparison against both oracles.
	for i := range in.Customers {
		if i%3 != 0 {
			in.Customers[i].Demand = 1<<62 + int64(i)
		}
	}
	for _, c := range []int64{0, 5, 1 << 40, 1 << 59} {
		in.Antennas[0].Capacity = c
		check(fmt.Sprintf("huge/c%d", c), in, nil)
		check(fmt.Sprintf("huge/c%d/masked", c), in, randMask(in))
	}
}

// TestEngineCachesSweeps pins the core caching contract: repeated queries
// for the same antenna must reuse one Sweep and one candidate slice.
func TestEngineCachesSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	in := randInstance(rng, 20, 2, model.Sectors)
	eng := NewEngine(in)
	if eng.Sweep(1) != eng.Sweep(1) {
		t.Fatal("Sweep not cached per antenna")
	}
	c1, c2 := eng.Candidates(0), eng.Candidates(0)
	if len(c1) > 0 && &c1[0] != &c2[0] {
		t.Fatal("Candidates not cached per antenna")
	}
}

// TestFloorFrac pins the integer floor arithmetic of the split item,
// including the overflow fallback.
func TestFloorFrac(t *testing.T) {
	cases := []struct{ p, rem, w, want int64 }{
		{10, 3, 4, 7},                        // floor(30/4) = 7 < 7.5
		{10, 4, 4, 10},                       // exact division
		{7, 1, 8, 0},                         // a fraction below one rounds to 0
		{0, 3, 4, 0},                         // zero profit
		{10, 0, 4, 0},                        // no room
		{1 << 62, 1 << 10, 1 << 20, 1 << 62}, // overflow: fall back to p
	}
	for _, c := range cases {
		if got := floorFrac(c.p, c.rem, c.w); got != c.want {
			t.Errorf("floorFrac(%d,%d,%d) = %d, want %d", c.p, c.rem, c.w, got, c.want)
		}
	}
}

// TestBestWindowSolvesOnlyContenders pins the pruning gain: with the floor
// bound and the top-bound candidate solved first, a best-window search
// solves about one knapsack, not one per window that merely could tie.
// Both instances run a greedy pass at 1 worker (capacity-descending
// antennas, served customers deactivated): on a banded n=5000 instance
// every call may solve at most 2 knapsacks, and on the 100k-churn tier
// instance the whole pass at most 80 (a rounded-up bound visited in
// descending-bound order with a strict prune solved 2,910 there).
func TestBestWindowSolvesOnlyContenders(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	greedyPass := func(in *model.Instance, perCall int64) int64 {
		eng := NewEngine(in)
		order := make([]int, in.M())
		for j := range order {
			order[j] = j
		}
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Compare(in.Antennas[b].Capacity, in.Antennas[a].Capacity)
		})
		active := make([]bool, in.N())
		for i := range active {
			active[i] = true
		}
		for _, j := range order {
			before := eng.solves.Load()
			w, err := eng.BestWindow(context.Background(), j, active, knapsack.Options{})
			if err != nil {
				t.Fatalf("%s antenna %d: %v", in.Name, j, err)
			}
			if got := eng.solves.Load() - before; perCall > 0 && got > perCall {
				t.Errorf("%s antenna %d: %d knapsacks solved over %d candidates, want <= %d",
					in.Name, j, got, len(eng.wins), perCall)
			}
			for _, i := range w.Customers {
				active[i] = false
			}
		}
		return eng.solves.Load()
	}
	for seed := int64(1); seed <= 3; seed++ {
		greedyPass(bandedInstance(rand.New(rand.NewSource(seed)), 5000, 4), 2)
	}
	cfg, err := gen.Tier("100k-churn")
	if err != nil {
		t.Fatal(err)
	}
	if got := greedyPass(gen.MustGenerate(cfg), 0); got > 80 {
		t.Errorf("100k-churn greedy pass solved %d knapsacks, want <= 80", got)
	}
}
