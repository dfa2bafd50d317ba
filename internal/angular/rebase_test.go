package angular

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// bandedInstance builds an instance whose antennas partition the plane into
// disjoint radial annuli (band j = [j·w + margin, (j+1)·w − margin]), so a
// delta confined to one band radially touches exactly that band's antenna.
func bandedInstance(rng *rand.Rand, n, bands int) *model.Instance {
	const w = 3.0
	in := &model.Instance{Name: "banded", Variant: model.Sectors}
	for j := 0; j < bands; j++ {
		in.Antennas = append(in.Antennas, model.Antenna{
			Rho:      math.Pi / 2,
			MinRange: float64(j) * w,
			Range:    float64(j+1) * w,
			Capacity: 40,
		})
	}
	for i := 0; i < n; i++ {
		b := rng.Intn(bands)
		in.Customers = append(in.Customers, model.Customer{
			Theta:  rng.Float64() * 2 * math.Pi,
			R:      float64(b)*w + 0.5 + 2*rng.Float64(), // clear of band edges
			Demand: 1 + int64(rng.Intn(9)),
			Profit: 1 + int64(rng.Intn(20)),
		})
	}
	in.Normalize()
	if err := in.Validate(); err != nil {
		panic(err)
	}
	return in
}

// bandCustomer returns some customer index whose radius lies in band b.
func bandCustomer(in *model.Instance, b int, skip map[int]bool) int {
	lo, hi := float64(b)*3.0, float64(b+1)*3.0
	for i, c := range in.Customers {
		if c.R > lo && c.R < hi && !skip[i] {
			return i
		}
	}
	panic("no customer in band")
}

func sweepsEqual(t *testing.T, tag string, got, want *Sweep) {
	t.Helper()
	// Rebase promises bit identity with a fresh build, so floats compare
	// by bits.
	if math.Float64bits(got.rho) != math.Float64bits(want.rho) || len(got.ids) != len(want.ids) {
		t.Fatalf("%s: shape mismatch: rho %v/%v len %d/%d", tag, got.rho, want.rho, len(got.ids), len(want.ids))
	}
	for k := range want.ids {
		if got.ids[k] != want.ids[k] || math.Float64bits(got.thetas[k]) != math.Float64bits(want.thetas[k]) ||
			got.weights[k] != want.weights[k] || got.profits[k] != want.profits[k] ||
			got.density[k] != want.density[k] {
			t.Fatalf("%s: position %d differs: got (id %d θ %v w %d p %d d %d) want (id %d θ %v w %d p %d d %d)",
				tag, k,
				got.ids[k], got.thetas[k], got.weights[k], got.profits[k], got.density[k],
				want.ids[k], want.thetas[k], want.weights[k], want.profits[k], want.density[k])
		}
	}
}

// checkRebase rebases eng onto the delta d of its instance, which churns
// radial band hot only, and checks the outcome against a fresh
// NewEngine(next): kept[j] must be false exactly for the hot band (its
// sweep is merged, which counts as dropped), every sweep — kept, merged,
// or lazily built — must match the fresh build bit for bit, density order
// included, and so must every candidate list and best window. It returns
// next for chained deltas.
func checkRebase(t *testing.T, tag string, eng *Engine, d model.Delta, hot int) *model.Instance {
	t.Helper()
	next, err := model.ApplyDelta(eng.Instance(), d)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	built := slices.Clone(eng.sweeps)
	kept := eng.Rebase(next, d)
	for j, k := range kept {
		if want := built[j] != nil && j != hot; k != want {
			t.Errorf("%s: kept[%d] = %v, want %v", tag, j, k, want)
		}
		if built[j] != nil && eng.sweeps[j] == nil {
			t.Errorf("%s: built sweep %d was dropped instead of kept or merged", tag, j)
		}
	}
	if eng.Instance() != next {
		t.Errorf("%s: Rebase did not adopt the new instance", tag)
	}

	fresh := NewEngine(next)
	if err := fresh.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	for j := range next.Antennas {
		sweepsEqual(t, fmt.Sprintf("%s antenna %d", tag, j), eng.Sweep(j), fresh.Sweep(j))
		gc, fc := eng.Candidates(j), fresh.Candidates(j)
		if len(gc) != len(fc) {
			t.Fatalf("%s antenna %d: candidate count %d != %d", tag, j, len(gc), len(fc))
		}
		for k := range fc {
			if math.Float64bits(gc[k]) != math.Float64bits(fc[k]) {
				t.Fatalf("%s antenna %d: candidate %d: %v != %v", tag, j, k, gc[k], fc[k])
			}
		}
	}

	// Functional check: best windows agree everywhere, including a
	// capacity-changed antenna (capacity lives in the instance, not the
	// sweep, so a kept sweep must still see the new value).
	for j := range next.Antennas {
		got, err := eng.BestWindow(context.Background(), j, nil, knapsack.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.BestWindow(context.Background(), j, nil, knapsack.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !windowsEqual(got, want) {
			t.Fatalf("%s antenna %d: window %+v != fresh %+v", tag, j, got, want)
		}
	}
	return next
}

// TestRebaseBitIdentical is the rebase differential: after a delta confined
// to one radial band, Rebase must keep exactly the untouched bands' sweeps
// and merge the touched one, and every sweep and candidate list must be
// bit-identical to a fresh engine's. The deltas cover mixed churn, adds
// that tie a surviving (or each other's) angle, removes alone, and
// re-prices alone, each on a fresh engine and all chained on one.
func TestRebaseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	in := bandedInstance(rng, 300, 4)
	const hot = 1 // the band the deltas churn
	skip := map[int]bool{}
	pick := func() int {
		i := bandCustomer(in, hot, skip)
		skip[i] = true
		return i
	}
	rm1, rm2, chg, tied, rm3 := pick(), pick(), pick(), pick(), pick()
	r := func(off float64) float64 { return hot*3.0 + off }
	deltas := []struct {
		name string
		d    model.Delta
	}{
		{"mixed", model.Delta{
			SetDemand:   []model.DemandChange{{Customer: chg, Demand: 5, Profit: 9}},
			SetCapacity: []model.CapacityChange{{Antenna: 3, Capacity: 25}},
			Remove:      []int{rm1, rm2},
			Add: []model.Customer{
				{Theta: 1.2, R: r(1.1), Demand: 2, Profit: 3},
				{Theta: 4.0, R: r(2.2), Demand: 3},
			},
		}},
		{"theta-ties", model.Delta{
			Remove: []int{rm3},
			Add: []model.Customer{
				{Theta: in.Customers[tied].Theta, R: r(1.5), Demand: 4, Profit: 30},
				{Theta: 2.5, R: r(0.9), Demand: 1, Profit: 2},
				{Theta: 2.5, R: r(1.9), Demand: 6, Profit: 2},
				{Theta: in.Customers[tied].Theta, R: r(2.0), Demand: 2},
				{Theta: in.Customers[rm3].Theta, R: r(1.0), Demand: 3, Profit: 7},
			},
		}},
		{"removes", model.Delta{Remove: []int{rm3, rm1, chg}}},
		{"reprices", model.Delta{SetDemand: []model.DemandChange{
			{Customer: chg, Demand: 9, Profit: 1},
			{Customer: tied, Demand: 1, Profit: 50},
		}}},
	}
	prewarmed := func() *Engine {
		eng := NewEngine(in)
		if err := eng.Prewarm(context.Background()); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for _, tc := range deltas {
		checkRebase(t, tc.name, prewarmed(), tc.d, hot)
	}

	// Chained: every delta's ids refer to the state its predecessor left,
	// so each later delta is rebuilt against the current instance.
	eng := prewarmed()
	cur := checkRebase(t, "chain mixed", eng, deltas[0].d, hot)
	for k := 0; k < 3; k++ {
		skip := map[int]bool{}
		a := bandCustomer(cur, hot, skip)
		skip[a] = true
		b := bandCustomer(cur, hot, skip)
		d := model.Delta{
			SetDemand: []model.DemandChange{{Customer: b, Demand: 2 + int64(k), Profit: 11}},
			Remove:    []int{a},
			Add:       []model.Customer{{Theta: cur.Customers[b].Theta, R: r(1.3), Demand: 3, Profit: 5}},
		}
		cur = checkRebase(t, fmt.Sprintf("chain %d", k), eng, d, hot)
	}
}

// TestRebaseLazySweeps: sweeps never built before the rebase stay nil (not
// kept) and build correctly against the new instance on demand; a built
// sweep the delta touches is merged at once, with no columnar view built.
func TestRebaseLazySweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	in := bandedInstance(rng, 120, 3)
	eng := NewEngine(in)
	_ = eng.Sweep(0) // build only band 0

	d := model.Delta{Remove: []int{bandCustomer(in, 2, nil)}}
	next, err := model.ApplyDelta(in, d)
	if err != nil {
		t.Fatal(err)
	}
	kept := eng.Rebase(next, d)
	if !kept[0] || kept[1] || kept[2] {
		t.Fatalf("kept = %v, want [true false false]", kept)
	}
	fresh := NewEngine(next)
	for j := range next.Antennas {
		sweepsEqual(t, "lazy", eng.Sweep(j), fresh.Sweep(j))
	}

	// Bands 0 and 2 built, band 1 not: a delta in band 2 merges its sweep
	// at once, builds no view, and leaves band 1 to a lazy build.
	eng = NewEngine(in)
	_, _ = eng.Sweep(0), eng.Sweep(2)
	d = model.Delta{
		Remove: []int{bandCustomer(in, 2, nil)},
		Add:    []model.Customer{{Theta: 1.0, R: 7.5, Demand: 2}},
	}
	if next, err = model.ApplyDelta(in, d); err != nil {
		t.Fatal(err)
	}
	kept = eng.Rebase(next, d)
	if !kept[0] || kept[1] || kept[2] {
		t.Fatalf("merge: kept = %v, want [true false false]", kept)
	}
	if eng.sweeps[2] == nil || eng.sweeps[1] != nil || eng.view != nil {
		t.Fatalf("merge: sweep 2 built %v, sweep 1 built %v, view built %v; want true false false",
			eng.sweeps[2] != nil, eng.sweeps[1] != nil, eng.view != nil)
	}
	fresh = NewEngine(next)
	for j := range next.Antennas {
		sweepsEqual(t, "merge", eng.Sweep(j), fresh.Sweep(j))
	}
}

// TestRebaseAntennaSetChange: a "delta" to an instance with a different
// antenna count resets every sweep instead of keeping stale state.
func TestRebaseAntennaSetChange(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	in := bandedInstance(rng, 60, 3)
	eng := NewEngine(in)
	if err := eng.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	next := in.Clone()
	next.Antennas = next.Antennas[:2]
	next.Normalize()
	kept := eng.Rebase(next, model.Delta{})
	if len(kept) != 2 || kept[0] || kept[1] {
		t.Fatalf("kept = %v, want [false false]", kept)
	}
	fresh := NewEngine(next)
	for j := range next.Antennas {
		sweepsEqual(t, "reset", eng.Sweep(j), fresh.Sweep(j))
	}
}

// TestRebaseLargeChurnBitIdentical is TestRebaseBitIdentical at a churn
// large enough for the radix paths of the merge: hundreds of re-priced
// survivors and additions in the hot band (so mergeDensity orders them
// with dantzigOrder's radix sort), additions that tie one another's angle
// (the (theta, id) order of the additions), and removes. Each delta runs
// on a fresh engine and all are chained on one.
func TestRebaseLargeChurnBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	in := bandedInstance(rng, 4000, 4)
	const hot = 2
	delta := func(cur *model.Instance) model.Delta {
		var d model.Delta
		lo, hi := float64(hot)*3.0, float64(hot+1)*3.0
		for i, c := range cur.Customers {
			if c.R <= lo || c.R >= hi {
				continue
			}
			switch rng.Intn(5) {
			case 0:
				d.Remove = append(d.Remove, i)
			case 1, 2:
				d.SetDemand = append(d.SetDemand, model.DemandChange{Customer: i, Demand: 1 + rng.Int63n(9), Profit: 1 + rng.Int63n(20)})
			}
		}
		for k := 0; k < 400; k++ {
			theta := rng.Float64() * 2 * math.Pi
			if k%4 == 1 {
				theta = d.Add[k-1].Theta // a tie with the previous addition
			}
			d.Add = append(d.Add, model.Customer{Theta: theta, R: lo + 0.5 + 2*rng.Float64(), Demand: 1 + rng.Int63n(9), Profit: 1 + rng.Int63n(20)})
		}
		if len(d.SetDemand) < radixMin {
			t.Fatalf("only %d re-priced survivors: the merge would not take the radix sort", len(d.SetDemand))
		}
		return d
	}
	prewarmed := func() *Engine {
		eng := NewEngine(in)
		if err := eng.Prewarm(context.Background()); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	checkRebase(t, "large churn", prewarmed(), delta(in), hot)
	eng := prewarmed()
	cur := in
	for k := 0; k < 3; k++ {
		cur = checkRebase(t, fmt.Sprintf("large chain %d", k), eng, delta(cur), hot)
	}
}
